package part2d

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/strategy"
)

// TestRect2DDescentMatchesReference: the oracle is exact, so the descent
// must take every decision the re-simulating one over the dense table
// (tiles_ref_test.go) takes — the same tile owners and the same telemetry
// (trials, accepted, rejected, the traffic after each kept move; the
// trials spent on empty tiles included), under the default budget and
// under budgets that stop it mid-tile — at processor counts that are not
// powers of two, past 64 and past n.
func TestRect2DDescentMatchesReference(t *testing.T) {
	for _, name := range []string{"BUS1138", "CANN1072", "DWT512", "LAP30", "LSHP1009"} {
		sys := suite(t)[name]
		if sys == nil {
			t.Fatalf("suite has no %s", name)
		}
		procs := []int{2, 3, 4, 16, 64, 65, sys.F.N + 7}
		if raceBuild || testing.Short() {
			procs = []int{2, 16}
		}
		for _, p := range procs {
			bounds := refBounds(sys, p)
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
				if !sameTileOwners(s2, want) {
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
// on every trial (3985 allocations a call at P = 16 on LAP30); the tile
// groups, their records and the counter now make 58, so besides the cap
// the full budget may not allocate more than a budget of one trial does.
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
	if full > 60 {
		t.Errorf("Map2D(rect2d, LAP30, 16) made %.0f allocations, want <= 60", full)
	}
	if full-one > 8 {
		t.Errorf("128 trials made %.0f allocations more than 1 trial (%.0f vs %.0f): a trial allocates", full-one, full, one)
	}
}
