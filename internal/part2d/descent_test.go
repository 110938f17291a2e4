package part2d

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/strategy"
	"repro/internal/traffic"
)

// referenceGuardedOwners is the rect2d descent as it was before
// traffic.Incremental: the same start, the same trial order and the same
// accept rule, with every trial scored by a full traffic.Simulate. It is
// the reference trafficGuardedOwners is pinned against and nothing else
// calls it.
func referenceGuardedOwners(sys *strategy.Sys, p int, bounds []int, budget int, tel *obs.SearchTelemetry) []int32 {
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
	sc := &sched.Schedule{P: p, ElemProc: elemProc, Work: load}
	setOwner := func(id int, dst int32) {
		src := owner[id]
		owner[id] = dst
		load[src] -= tw[id]
		load[dst] += tw[id]
		for _, q := range elems[id] {
			elemProc[q] = dst
		}
	}
	sumsq := func() float64 {
		var s float64
		for _, l := range load {
			s += float64(l) * float64(l)
		}
		return s
	}
	cur := traffic.Simulate(sys.Ops, sc).Total
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
		least := int32(0)
		for k := 1; k < p; k++ {
			if load[k] < load[least] {
				least = int32(k)
			}
		}
		home := owner[TileID(rowOf[id], rowOf[id])]
		for ci, dst := range [...]int32{home, least} {
			src := owner[id]
			if dst == src || (ci == 1 && dst == home) {
				continue
			}
			before := sumsq()
			setOwner(id, dst)
			evals++
			nt := traffic.Simulate(sys.Ops, sc).Total
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

// TestRect2DDescentMatchesReference: the oracle is exact, so the descent
// must take every decision the re-simulating one takes — the same tile
// owners and the same telemetry (trials, accepted, rejected, the traffic
// after each kept move), under the default budget and under budgets that
// stop it mid-tile.
func TestRect2DDescentMatchesReference(t *testing.T) {
	procs := []int{2, 4, 16, 64}
	if testing.Short() {
		procs = []int{2, 16}
	}
	for _, name := range []string{"BUS1138", "CANN1072", "DWT512", "LAP30", "LSHP1009"} {
		sys := suite(t)[name]
		if sys == nil {
			t.Fatalf("suite has no %s", name)
		}
		for _, p := range procs {
			bounds := rectBounds(sys, p)
			for _, maxMoves := range []int{0, 1, 7} {
				opts := strategy.Options{MaxMoves: maxMoves, Search: &obs.SearchTelemetry{}}
				s2, err := Map2D("rect2d", sys, p, opts)
				if err != nil {
					t.Fatalf("%s P=%d MaxMoves=%d: %v", name, p, maxMoves, err)
				}
				budget := maxMoves
				if budget <= 0 {
					budget = defaultRect2DEvals
				}
				wantTel := &obs.SearchTelemetry{}
				want := referenceGuardedOwners(sys, p, bounds, budget, wantTel)
				if !reflect.DeepEqual(s2.Owner, want) {
					t.Errorf("%s P=%d MaxMoves=%d: tile owners differ from the re-simulating descent", name, p, maxMoves)
				}
				if !reflect.DeepEqual(opts.Search, wantTel) {
					t.Errorf("%s P=%d MaxMoves=%d: telemetry %+v, reference %+v", name, p, maxMoves, opts.Search, wantTel)
				}
				if wantTel.Trials > int64(budget) {
					t.Errorf("%s P=%d MaxMoves=%d: %d trials exceed the budget", name, p, maxMoves, wantTel.Trials)
				}
			}
		}
	}
}

// TestRect2DAllocationBound: the descent allocates its state once and a
// trial allocates nothing. The re-simulating descent paid a
// traffic.Result with its P x P pair matrix and the enumerator's scratch
// on every trial (3985 allocations a call at P = 16 on LAP30, 1024 now),
// so besides the cap the full budget may not allocate more than a budget
// of one trial does.
func TestRect2DAllocationBound(t *testing.T) {
	sys := lapSys(t)
	allocs := func(maxMoves int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Map2D("rect2d", sys, 16, strategy.Options{MaxMoves: maxMoves}); err != nil {
				t.Fatal(err)
			}
		})
	}
	full, one := allocs(0), allocs(1)
	if full > 1500 {
		t.Errorf("Map2D(rect2d, LAP30, 16) made %.0f allocations, want <= 1500", full)
	}
	if full-one > 8 {
		t.Errorf("128 trials made %.0f allocations more than 1 trial (%.0f vs %.0f): a trial allocates", full-one, full, one)
	}
}
