package part2d

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/strategy"
	"repro/internal/traffic"
)

// map2DFunc is one 2D strategy: it assigns the factorization work of sys
// to p processors, p already validated by Map2D, at tile granularity. It
// reads the same strategy.Sys and strategy.Options as the 1D strategies,
// so the two tables share every analysis product and knob.
type map2DFunc func(sys *strategy.Sys, p int, opts strategy.Options) (*Schedule2D, error)

// mappers2D is the 2D strategy table.
var mappers2D = strategy.Registry[map2DFunc]{
	{"col2d", col2d},
	{"rect2d", rect2d},
	{"rect2dcyclic", rect2dCyclic},
	{"rect2dlpt", rect2dLPT},
}

// Names2D returns the sorted names of all 2D strategies.
func Names2D() []string { return mappers2D.Names() }

// Map2D runs the named 2D strategy, returning a descriptive error when
// the name is unknown or p is below one.
func Map2D(name string, sys *strategy.Sys, p int, opts strategy.Options) (*Schedule2D, error) {
	if err := sched.CheckProcs("part2d", p); err != nil {
		return nil, err
	}
	m, err := mappers2D.Find("part2d: unknown 2D strategy", name)
	if err != nil {
		return nil, err
	}
	return m(sys, p, opts)
}

// rectBounds returns the shared diagonal intervals of the symmetric
// rectilinear partition — the 1D rectilinear cuts, computed once per
// analysis and P and shared with the 1D mapper — without the empty
// trailing intervals RectilinearCuts pads with. The cuts are read-only, so
// the compaction writes a fresh slice.
func rectBounds(sys *strategy.Sys, p int) []int {
	cuts := sys.RectilinearCuts(p)
	bounds := []int{cuts[0]}
	for _, b := range cuts[1:] {
		if b > bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	return bounds
}

// rect2d keeps the 2D tile structure the 1D rectilinear mapper
// flattens away. The shared diagonal intervals come from the same
// binary-search cuts (minimal maximum tile work); ownership starts from
// the column-flattened assignment (every tile of block column c to
// processor c, exactly the 1D rectilinear schedule) and then descends:
// off-diagonal tiles, heaviest first, are tried on the owner of their
// row block's diagonal tile and on the least-loaded processor, and a
// move is kept only when the simulated deduplicated traffic strictly
// decreases, or stays equal while the load balance strictly improves.
// The result is a genuinely 2D ownership whose total traffic never
// exceeds the column-flattened schedule's — by construction, and pinned
// by the Ext-T regression on LAP30. Options.MaxMoves caps the number of
// trial evaluations (<= 0 selects the default of 128, the same knob the
// 1D refine strategy uses).
func rect2d(sys *strategy.Sys, p int, opts strategy.Options) (*Schedule2D, error) {
	bounds := rectBounds(sys, p)
	budget := opts.MaxMoves
	if budget <= 0 {
		budget = defaultRect2DEvals
	}
	tl := newTiling(sys.F, bounds)
	owner := trafficGuardedOwners(sys, p, bounds, tl, budget, opts.Search)
	return newSchedule(sys.F, sys.ElemWork, p, bounds, tl, owner), nil
}

// defaultRect2DEvals bounds the trials of the rect2d descent. A trial
// moves one tile through traffic.Incremental and costs the tile's read
// records and elements, not a traffic simulation. The budget is not sized
// to that cost: the descent's answer depends on it, so raising it changes
// every rect2d schedule and count in the ledger and belongs in a change
// that says so.
const defaultRect2DEvals = 128

// trafficGuardedOwners runs the rect2d descent: flattened start, then
// traffic-guarded single-tile moves, heaviest tiles first, within the
// evaluation budget. The traffic of every trial is exact and comes from
// one traffic.Incremental built over the start with the tiles as its
// groups (4·nnz(L)·P bytes, dropped on return): a trial moves the tile
// and a rejected one moves it back. tel, when non-nil, records one
// trial per evaluation and the traffic trajectory of the kept moves.
//
// The trial order is the one over all R(R-1)/2 off-diagonal tiles: by
// work, heaviest first, ties in row-major order. An empty tile has zero
// work, moves no element and no load, so its trials are rejected without
// touching the state, but they still spend the budget. The descent
// therefore visits the non-empty tiles of positive work by the sort, then
// walks the zero-work positions in row-major order — empty ones included,
// each costing at least one trial, so the walk ends within the budget.
// (Element work is never negative.)
func trafficGuardedOwners(sys *strategy.Sys, p int, bounds []int, tl *tiling, budget int, tel *obs.SearchTelemetry) []int32 {
	r := len(tl.ptr) - 1
	owner := make([]int32, len(tl.row))
	boxes := make([]traffic.Box, len(tl.row))
	var offs []int32
	for c := 0; c < r; c++ {
		for t := tl.ptr[c]; t < tl.ptr[c+1]; t++ {
			rb := tl.row[t]
			owner[t] = int32(c)
			boxes[t] = traffic.Box{Col0: bounds[c], Col1: bounds[c+1], Row0: bounds[rb], Row1: bounds[rb+1]}
			if rb != int32(c) {
				offs = append(offs, t)
			}
		}
	}
	if p < 2 || r < 2 {
		return owner
	}
	// Incremental state: one traffic group per tile over the start's
	// element ownership, and the per-processor loads.
	start := newSchedule(sys.F, sys.ElemWork, p, bounds, tl, owner)
	tw, load := tl.work(sys.ElemWork), start.work
	inc := traffic.NewIncremental(traffic.NewGroups(sys.Ops, boxes), start.Schedule())
	// setOwner moves tile t to dst and returns the traffic after it.
	setOwner := func(t int32, dst int32) int64 {
		src := owner[t]
		owner[t] = dst
		load[src] -= tw[t]
		load[dst] += tw[t]
		return inc.Move(int(t), dst)
	}
	sumsq := func() float64 {
		var s float64
		for _, l := range load {
			s += float64(l) * float64(l)
		}
		return s
	}
	cur := inc.Total()
	tel.Objective(cur)
	evals := 0
	// try runs the trials of off-diagonal tile (rr, cc), t < 0 when it is
	// empty. Diagonal tiles never move, so the row block's diagonal owner
	// is rr — the row's "home" processor, the fan-out destination the
	// tile's sources already visit.
	try := func(t int32, rr, cc int) {
		least := int32(sched.LeastLoaded(load))
		home := int32(rr)
		for ci, dst := range [...]int32{home, least} {
			src := int32(cc)
			if t >= 0 {
				src = owner[t]
			}
			if dst == src || (ci == 1 && dst == home) {
				continue // never repeat an identical trial
			}
			before := sumsq()
			nt := cur
			if t >= 0 {
				nt = setOwner(t, dst)
			}
			evals++
			if nt < cur || (nt == cur && sumsq() < before) {
				cur = nt
				tel.Trial(true)
				tel.Objective(nt)
				return
			}
			if t >= 0 {
				setOwner(t, src)
			}
			tel.Trial(false)
			if evals >= budget {
				return
			}
		}
	}
	tl.heaviestFirst(offs, tw)
	for k := 0; k < len(offs) && tw[offs[k]] > 0 && evals < budget; k++ {
		t := offs[k]
		try(t, int(tl.row[t]), tl.col(t))
	}
	for rr := 1; rr < r && evals < budget; rr++ {
		for cc := 0; cc < rr && evals < budget; cc++ {
			t, ok := findTile(tl.ptr, tl.row, rr, cc)
			switch {
			case !ok:
				try(-1, rr, cc)
			case tw[t] == 0:
				try(int32(t), rr, cc)
			}
		}
	}
	return owner
}

// rect2dLPT shares rect2d's diagonal intervals but assigns every
// lower-triangle tile by greedy tile-work LPT — heaviest tile first onto
// the least-loaded processor. It is the balance extreme of the 2D family:
// near-perfect load balance (tiles are much finer than block columns) at
// the cost of scattering each block column's readers, hence more
// deduplicated traffic than rect2d's guarded descent. Only non-empty tiles
// are dealt: an empty one adds no load, so it changes no later pick.
func rect2dLPT(sys *strategy.Sys, p int, _ strategy.Options) (*Schedule2D, error) {
	bounds := rectBounds(sys, p)
	tl := newTiling(sys.F, bounds)
	tw := tl.work(sys.ElemWork)
	order := make([]int32, len(tw))
	for t := range order {
		order[t] = int32(t)
	}
	tl.heaviestFirst(order, tw)
	owner := make([]int32, len(tw))
	load := make([]int64, p)
	for _, t := range order {
		least := sched.LeastLoaded(load)
		owner[t] = int32(least)
		load[least] += tw[t]
	}
	return newSchedule(sys.F, sys.ElemWork, p, bounds, tl, owner), nil
}

// rect2dCyclic uses the same rectilinear diagonal intervals but
// assigns tile owners by 2D wrap over a pr x pc processor grid (pr the
// largest divisor of p at most sqrt(p)): tile (r, c) goes to processor
// (r mod pr)*pc + (c mod pc), the classical 2D block-cyclic layout that
// bounds every tile row's and tile column's owner set by pc and pr.
func rect2dCyclic(sys *strategy.Sys, p int, _ strategy.Options) (*Schedule2D, error) {
	pr := 1
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			pr = d
		}
	}
	pc := p / pr
	return fromOwner(sys.F, sys.ElemWork, p, rectBounds(sys, p), func(r, c int) int32 {
		return int32((r%pr)*pc + c%pc)
	})
}

// LiftBases lists the shipped column-granular 1D strategies the col2d
// bridge lifts — the single source the Ext-T table, the tile2d sweep,
// the example and the bit-identity tests all enumerate. Block-granular
// strategies (block, blockgreedy, refine over them) are excluded because
// Lift rejects schedules without column owners; a new
// column-granular 1D strategy joins every 2D surface by being added
// here.
func LiftBases() []string {
	return []string{"wrap", "contiguous", "contigtotal", "rectilinear", "subcube", "blockcyclic"}
}

// col2d lifts any column-granular 1D strategy into the
// 2D subsystem: it runs the base strategy (opts.Base, default "wrap"),
// derives the maximal runs of constant column ownership as the diagonal
// intervals, and assigns every tile of a block column to the column's 1D
// owner. The lifted schedule's element ownership is identical to the 1D
// schedule's, its 2D traffic total equals the 1D simulated total, and the
// 2D makespan simulators are bit-identical to the 1D ones — the bridge
// that makes every existing mapper comparable in the 2D simulators.
func col2d(sys *strategy.Sys, p int, opts strategy.Options) (*Schedule2D, error) {
	base := opts.Base
	if base == "" {
		base = "wrap"
	}
	sc, err := strategy.Map(base, sys, p, opts)
	if err != nil {
		return nil, err
	}
	return Lift(sys, sc, base)
}

// Lift converts a column-granular 1D schedule into the equivalent 2D tile
// schedule (the col2d bridge): diagonal intervals are the maximal runs of
// constant column ownership, and every tile of a block column belongs to
// the column's 1D owner. It reads the schedule's column owners (ColProc)
// and rejects a schedule without them or over another factor than sys.F —
// a block-granular one, relaxed factors included — which is not
// expressible as tile ownership over shared column intervals. name labels
// errors.
func Lift(sys *strategy.Sys, sc *sched.Schedule, name string) (*Schedule2D, error) {
	f, owner1d := sys.F, sc.ColProc
	if owner1d == nil || sc.F != f {
		return nil, fmt.Errorf("part2d: %q is not column-granular over the analysis factor", name)
	}
	bounds := []int{0}
	for j := 1; j < f.N; j++ {
		if owner1d[j] != owner1d[j-1] {
			bounds = append(bounds, j)
		}
	}
	if f.N > 0 {
		bounds = append(bounds, f.N)
	}
	return fromOwner(sys.F, sys.ElemWork, sc.P, bounds, func(_, c int) int32 { return owner1d[bounds[c]] })
}
