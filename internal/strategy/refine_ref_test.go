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
			if mv[u].work == 0 && len(mv[u].elems) == 0 {
				continue
			}
			tgt := pluralityOwner(mv, succs, own, u, tally)
			if tgt == own[u] {
				continue
			}
			src := own[u]
			move(sc, mv, own, u, tgt)
			moves++
			if t := simulate(); t < cur {
				cur = t
				improved = true
				opts.Search.Trial(true)
				opts.Search.Objective(t)
			} else {
				move(sc, mv, own, u, src)
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
// returns — element owners, unit owners and per-processor work — with the
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
					mv, own, err := movables(sys, wantOpts, want)
					if err != nil {
						t.Fatal(err)
					}
					referenceRefineTraffic(sys, wantOpts, want, mv, own, maxMoves)
					label := name + "/" + c.base
					if !reflect.DeepEqual(got.ElemProc, want.ElemProc) {
						t.Errorf("%s relax=%.1f P=%d MaxMoves=%d: ElemProc differs from the re-simulating loop", label, c.part.RelaxZeros, p, maxMoves)
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
					if got, sim := opts.Search.Best(), Traffic(sys, opts, got).Total; got != sim {
						t.Errorf("%s relax=%.1f P=%d MaxMoves=%d: last trajectory point %d, simulated traffic %d", label, c.part.RelaxZeros, p, maxMoves, got, sim)
					}
				}
			}
		}
	}
}
