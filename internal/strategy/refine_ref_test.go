package strategy

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sched"
)

// referenceRefineTraffic is refineTraffic as it was before
// traffic.Incremental: the same visiting order and the same accept rule,
// with every trial scored by a full simulation through Traffic (which
// picks the relaxed partition's ops). It is the reference the shipped loop
// is pinned against and nothing else calls it.
func referenceRefineTraffic(sys *Sys, opts Options, sc *sched.Schedule, mv []movable, own []int32, maxMoves int) {
	if maxMoves <= 0 {
		maxMoves = defaultTrafficMoves
	}
	simulate := func() int64 { return Traffic(sys, opts, sc).Total }
	cur := simulate()
	opts.Search.Objective(cur)
	succs := buildSuccs(mv)
	tally := make([]int64, sc.P)
	moves := 0
	for {
		improved := false
		for u := range mv {
			if moves >= maxMoves {
				return
			}
			if mv[u].work == 0 && mv[u].elems == 0 {
				continue
			}
			tgt := pluralityOwner(mv, succs, own, u, tally)
			if tgt == own[u] {
				continue
			}
			src := own[u]
			reown(sc, mv, own, u, tgt)
			moves++
			if t := simulate(); t < cur {
				cur = t
				improved = true
				opts.Search.Trial(true)
				opts.Search.Objective(t)
			} else {
				reown(sc, mv, own, u, src)
				opts.Search.Trial(false)
			}
		}
		if !improved {
			return
		}
	}
}

// TestRefineTrafficMatchesReference: the oracle is exact, so refine's
// traffic objective must return the schedule the re-simulating loop
// returns — column owners, unit owners and per-processor work — with the
// same telemetry, over block-granular bases (plain and relaxed, where the
// schedule covers the partition's padded factor) and column-granular ones.
func TestRefineTrafficMatchesReference(t *testing.T) {
	cases := []struct {
		base string
		part core.Options
	}{
		{base: "block"},
		{base: "block", part: core.Options{RelaxZeros: 0.3}},
		{base: "wrap"},
		{base: "contiguous"},
	}
	for _, name := range []string{"LAP30", "BUS1138"} {
		m, _, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sys := newTestSys(t, m)
		if sys.Partition(cases[1].part).F == sys.F {
			t.Fatalf("%s: RelaxZeros %.1f pads nothing; the relaxed case would go untested", name, cases[1].part.RelaxZeros)
		}
		for _, c := range cases {
			for _, p := range []int{4, 16} {
				for _, maxMoves := range []int{0, 5} {
					opts := Options{Base: c.base, Part: c.part, Objective: "traffic", MaxMoves: maxMoves, Search: &obs.SearchTelemetry{}}
					got, err := Map("refine", sys, p, opts)
					if err != nil {
						t.Fatal(err)
					}
					base, err := Map(c.base, sys, p, opts)
					if err != nil {
						t.Fatal(err)
					}
					want := cloneSchedule(base)
					wantOpts := opts
					wantOpts.Search = &obs.SearchTelemetry{}
					mv, own, err := movables(sys, want)
					if err != nil {
						t.Fatal(err)
					}
					referenceRefineTraffic(sys, wantOpts, want, mv, own, maxMoves)
					label := name + "/" + c.base
					if !reflect.DeepEqual(got.ColProc, want.ColProc) {
						t.Errorf("%s relax=%.1f P=%d MaxMoves=%d: ColProc differs from the re-simulating loop", label, c.part.RelaxZeros, p, maxMoves)
					}
					if !reflect.DeepEqual(got.UnitProc, want.UnitProc) {
						t.Errorf("%s relax=%.1f P=%d MaxMoves=%d: UnitProc differs", label, c.part.RelaxZeros, p, maxMoves)
					}
					if !reflect.DeepEqual(got.Work, want.Work) {
						t.Errorf("%s relax=%.1f P=%d MaxMoves=%d: Work %v, reference %v", label, c.part.RelaxZeros, p, maxMoves, got.Work, want.Work)
					}
					if !reflect.DeepEqual(opts.Search, wantOpts.Search) {
						t.Errorf("%s relax=%.1f P=%d MaxMoves=%d: telemetry %+v, reference %+v", label, c.part.RelaxZeros, p, maxMoves, opts.Search, wantOpts.Search)
					}
					tr := opts.Search.Trajectory
					if got, sim := tr[len(tr)-1], Traffic(sys, opts, got).Total; got != sim {
						t.Errorf("%s relax=%.1f P=%d MaxMoves=%d: last trajectory point %d, simulated traffic %d", label, c.part.RelaxZeros, p, maxMoves, got, sim)
					}
				}
			}
		}
	}
}

// TestRefineTrafficForeignPartition: Refine on a block schedule built by
// another Sys refines over that schedule's own partition, even when the
// Sys it is handed holds a partition of the same options over another
// matrix, and returns what the schedule's own Sys returns.
func TestRefineTrafficForeignPartition(t *testing.T) {
	lap, _, err := gen.ByName("LAP30")
	if err != nil {
		t.Fatal(err)
	}
	bus, _, err := gen.ByName("BUS1138")
	if err != nil {
		t.Fatal(err)
	}
	own, other := newTestSys(t, lap), newTestSys(t, bus)
	for _, part := range []core.Options{{}, {RelaxZeros: 0.3}} {
		opts := Options{Part: part, Objective: "traffic", MaxMoves: 20}
		other.Partition(part)
		base, err := Map("block", own, 16, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refineFrom(own, opts, base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := refineFrom(other, opts, base)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.UnitProc, want.UnitProc) || !reflect.DeepEqual(got.ColProc, want.ColProc) {
			t.Errorf("relax=%.1f: Refine through another Sys moved other units", part.RelaxZeros)
		}
		if got.Part != base.Part || got.F != base.F {
			t.Errorf("relax=%.1f: refined schedule lost its structure", part.RelaxZeros)
		}
	}
}
