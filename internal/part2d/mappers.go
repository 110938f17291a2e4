package part2d

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/strategy"
	"repro/internal/traffic"
)

// Mapper2D is one 2D partitioning/mapping strategy: Map2D assigns the
// factorization work of sys to p processors at tile granularity and
// returns the 2D schedule. Mappers consume the same strategy.Sys and
// strategy.Options as the 1D registry, so the two registries share every
// analysis product and knob.
type Mapper2D interface {
	Name() string
	Map2D(sys *strategy.Sys, p int, opts strategy.Options) (*Schedule2D, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Mapper2D)
)

// Register2D adds a 2D strategy to the registry. It panics on an empty
// name or a duplicate registration, mirroring strategy.Register.
func Register2D(m Mapper2D) {
	regMu.Lock()
	defer regMu.Unlock()
	name := m.Name()
	if name == "" {
		panic("part2d: Register2D with empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("part2d: Register2D called twice for %q", name))
	}
	registry[name] = m
}

// Lookup2D returns the registered 2D strategy with the given name.
func Lookup2D(name string) (Mapper2D, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	m, ok := registry[name]
	return m, ok
}

// Names2D returns the sorted names of all registered 2D strategies.
func Names2D() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	//repro:allow maporder -- key collection for the sort.Strings below; iteration order never escapes
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Map2D runs the named 2D strategy, returning a descriptive error when
// the name is unknown.
func Map2D(name string, sys *strategy.Sys, p int, opts strategy.Options) (*Schedule2D, error) {
	if err := sched.CheckProcs("part2d", p); err != nil {
		return nil, err
	}
	m, ok := Lookup2D(name)
	if !ok {
		return nil, fmt.Errorf("part2d: unknown 2D strategy %q (registered: %s)",
			name, strings.Join(Names2D(), ", "))
	}
	return m.Map2D(sys, p, opts)
}

// rectBounds computes the shared diagonal intervals of the symmetric
// rectilinear partition (the existing 1D rectilinear cuts) and compresses
// away the empty trailing intervals RectilinearCuts pads with.
func rectBounds(sys *strategy.Sys, p int) []int {
	cuts := strategy.RectilinearCuts(sys.Ops, sys.ElemWork, p)
	bounds := cuts[:1]
	for _, b := range cuts[1:] {
		if b > bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	return bounds
}

// rect2dMapper keeps the 2D tile structure the 1D rectilinear mapper
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
type rect2dMapper struct{}

func (rect2dMapper) Name() string { return "rect2d" }

// defaultRect2DEvals bounds the trials of the rect2d descent. A trial
// moves one tile through traffic.Incremental and costs the tile's
// elements times their row structures, not a traffic simulation. The
// budget is not sized to that cost: the descent's answer depends on it,
// so raising it changes every rect2d schedule and count in the ledger and
// belongs in a change that says so.
const defaultRect2DEvals = 128

func (rect2dMapper) Map2D(sys *strategy.Sys, p int, opts strategy.Options) (*Schedule2D, error) {
	if err := sched.CheckProcs("part2d", p); err != nil {
		return nil, err
	}
	bounds := rectBounds(sys, p)
	budget := opts.MaxMoves
	if budget <= 0 {
		budget = defaultRect2DEvals
	}
	owner := trafficGuardedOwners(sys, p, bounds, budget, opts.Search)
	return New(sys.F, sys.ElemWork, p, bounds, owner)
}

// trafficGuardedOwners runs the rect2d descent: flattened start, then
// traffic-guarded single-tile moves, heaviest tiles first, within the
// evaluation budget. The traffic of every trial is exact and comes from
// one traffic.Incremental built over the start (about one simulation,
// 4·nnz(L)·P bytes, dropped on return): a trial moves the tile's elements
// and a rejected one moves them back. tel, when non-nil, records one
// trial per evaluation and the traffic trajectory of the kept moves.
func trafficGuardedOwners(sys *strategy.Sys, p int, bounds []int, budget int, tel *obs.SearchTelemetry) []int32 {
	f := sys.F
	r := len(bounds) - 1
	tw := TileWork(f, sys.ElemWork, bounds)
	blockOf := blockIndex(f.N, bounds)
	owner := make([]int32, len(tw))
	rowOf := make([]int, len(tw))
	for rr := 0; rr < r; rr++ {
		for cc := 0; cc <= rr; cc++ {
			owner[TileID(rr, cc)] = int32(cc)
			rowOf[TileID(rr, cc)] = rr
		}
	}
	if p < 2 || r < 2 {
		return owner
	}
	// Incremental state: the element list of every tile, the derived
	// element ownership and per-processor loads.
	elems := make([][]int32, len(tw))
	elemProc := make([]int32, f.NNZ())
	load := make([]int64, p)
	for j := 0; j < f.N; j++ {
		c := int(blockOf[j])
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			id := TileID(int(blockOf[f.RowInd[q]]), c)
			elems[id] = append(elems[id], int32(q))
			elemProc[q] = owner[id]
			load[owner[id]] += sys.ElemWork[q]
		}
	}
	inc := traffic.NewIncremental(sys.Ops, &sched.Schedule{P: p, ElemProc: elemProc})
	// setOwner moves tile id to dst and returns the traffic after it.
	setOwner := func(id int, dst int32) int64 {
		src := owner[id]
		owner[id] = dst
		load[src] -= tw[id]
		load[dst] += tw[id]
		return inc.Move(elems[id], dst)
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
	offs := make([]int, 0, len(tw)-r)
	for rr := 1; rr < r; rr++ {
		for cc := 0; cc < rr; cc++ {
			offs = append(offs, TileID(rr, cc))
		}
	}
	sort.Slice(offs, func(a, b int) bool {
		if tw[offs[a]] != tw[offs[b]] {
			return tw[offs[a]] > tw[offs[b]]
		}
		return offs[a] < offs[b]
	})
	evals := 0
	for _, id := range offs {
		if evals >= budget {
			break
		}
		least := int32(sched.LeastLoaded(load))
		// Diagonal tiles never move, so the row block's diagonal owner is
		// the row's "home" processor — the fan-out destination the tile's
		// sources already visit.
		home := owner[TileID(rowOf[id], rowOf[id])]
		for ci, dst := range [...]int32{home, least} {
			src := owner[id]
			if dst == src || (ci == 1 && dst == home) {
				continue // never repeat an identical trial
			}
			before := sumsq()
			nt := setOwner(id, dst)
			evals++
			if nt < cur || (nt == cur && sumsq() < before) {
				cur = nt
				tel.Trial(true)
				tel.Objective(nt)
				break
			}
			setOwner(id, src)
			tel.Trial(false)
			if evals >= budget {
				break
			}
		}
	}
	return owner
}

// rect2dlptMapper shares rect2d's diagonal intervals but assigns every
// lower-triangle tile by greedy tile-work LPT — heaviest tile first onto
// the least-loaded processor. It is the balance extreme of the 2D family:
// near-perfect load balance (tiles are much finer than block columns) at
// the cost of scattering each block column's readers, hence more
// deduplicated traffic than rect2d's guarded descent.
type rect2dlptMapper struct{}

func (rect2dlptMapper) Name() string { return "rect2dlpt" }

func (rect2dlptMapper) Map2D(sys *strategy.Sys, p int, opts strategy.Options) (*Schedule2D, error) {
	if err := sched.CheckProcs("part2d", p); err != nil {
		return nil, err
	}
	bounds := rectBounds(sys, p)
	tw := TileWork(sys.F, sys.ElemWork, bounds)
	order := make([]int, len(tw))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if tw[order[a]] != tw[order[b]] {
			return tw[order[a]] > tw[order[b]]
		}
		return order[a] < order[b]
	})
	owner := make([]int32, len(tw))
	load := make([]int64, p)
	for _, t := range order {
		least := sched.LeastLoaded(load)
		owner[t] = int32(least)
		load[least] += tw[t]
	}
	return New(sys.F, sys.ElemWork, p, bounds, owner)
}

// rect2dcyclicMapper uses the same rectilinear diagonal intervals but
// assigns tile owners by 2D wrap over a pr x pc processor grid (pr the
// largest divisor of p at most sqrt(p)): tile (r, c) goes to processor
// (r mod pr)*pc + (c mod pc), the classical 2D block-cyclic layout that
// bounds every tile row's and tile column's owner set by pc and pr.
type rect2dcyclicMapper struct{}

func (rect2dcyclicMapper) Name() string { return "rect2dcyclic" }

func (rect2dcyclicMapper) Map2D(sys *strategy.Sys, p int, opts strategy.Options) (*Schedule2D, error) {
	if err := sched.CheckProcs("part2d", p); err != nil {
		return nil, err
	}
	bounds := rectBounds(sys, p)
	r := len(bounds) - 1
	pr := 1
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			pr = d
		}
	}
	pc := p / pr
	owner := make([]int32, r*(r+1)/2)
	for rr := 0; rr < r; rr++ {
		for cc := 0; cc <= rr; cc++ {
			owner[TileID(rr, cc)] = int32((rr%pr)*pc + cc%pc)
		}
	}
	return New(sys.F, sys.ElemWork, p, bounds, owner)
}

// LiftBases lists the shipped column-granular 1D strategies the col2d
// bridge lifts — the single source the Ext-T table, the tile2d sweep,
// the example and the bit-identity tests all enumerate. Block-granular
// strategies (block, blockgreedy, refine over them) are excluded because
// Lift rejects schedules that split a column across processors; a new
// column-granular 1D strategy joins every 2D surface by being added
// here.
func LiftBases() []string {
	return []string{"wrap", "contiguous", "contigtotal", "rectilinear", "subcube", "blockcyclic"}
}

// col2dMapper lifts any registered column-granular 1D strategy into the
// 2D subsystem: it runs the base strategy (opts.Base, default "wrap"),
// derives the maximal runs of constant column ownership as the diagonal
// intervals, and assigns every tile of a block column to the column's 1D
// owner. The lifted schedule's element ownership is identical to the 1D
// schedule's, its 2D traffic total equals the 1D simulated total, and the
// 2D makespan simulators are bit-identical to the 1D ones — the bridge
// that makes every existing mapper comparable in the 2D simulators.
type col2dMapper struct{}

func (col2dMapper) Name() string { return "col2d" }

func (col2dMapper) Map2D(sys *strategy.Sys, p int, opts strategy.Options) (*Schedule2D, error) {
	if err := sched.CheckProcs("part2d", p); err != nil {
		return nil, err
	}
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
// the column's 1D owner. It rejects schedules over a different factor
// (relaxed partitions) and schedules that split a column across
// processors, neither of which is expressible as tile ownership over
// shared column intervals. name labels errors.
func Lift(sys *strategy.Sys, sc *sched.Schedule, name string) (*Schedule2D, error) {
	f := sys.F
	if len(sc.ElemProc) != f.NNZ() {
		return nil, fmt.Errorf("part2d: %q works on a relaxed factor (%d elements vs %d); lift requires the analysis factor",
			name, len(sc.ElemProc), f.NNZ())
	}
	owner1d := make([]int32, f.N)
	for j := 0; j < f.N; j++ {
		o := sc.ElemProc[f.ColPtr[j]]
		for q := f.ColPtr[j] + 1; q < f.ColPtr[j+1]; q++ {
			if sc.ElemProc[q] != o {
				return nil, fmt.Errorf("part2d: %q is not column-granular (column %d split across processors)", name, j)
			}
		}
		owner1d[j] = o
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
	r := len(bounds) - 1
	owner := make([]int32, r*(r+1)/2)
	for cc := 0; cc < r; cc++ {
		o := owner1d[bounds[cc]]
		for rr := cc; rr < r; rr++ {
			owner[TileID(rr, cc)] = o
		}
	}
	return New(sys.F, sys.ElemWork, sc.P, bounds, owner)
}

func init() {
	Register2D(rect2dMapper{})
	Register2D(rect2dlptMapper{})
	Register2D(rect2dcyclicMapper{})
	Register2D(col2dMapper{})
}
