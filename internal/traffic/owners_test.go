package traffic_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/part2d"
	"repro/internal/sched"
	"repro/internal/strategy"
	"repro/internal/traffic"
)

// ownersHold returns how sc departs from the owner-vector format, "" when
// it keeps it: exactly one of UnitProc (over the units of opts.Part's
// partition) and ColProc (over sys.F's columns) is set, the schedule
// carries the structure that vector indexes (Part, set exactly when
// UnitProc is, and F: the partition's factor, padded when relaxed, or
// sys.F), every owner is a processor of sc, every element sits on its
// unit's or column's owner, and Work is the per-processor sum of the
// element work.
func ownersHold(sys *strategy.Sys, opts strategy.Options, sc *sched.Schedule) string {
	f, elemWork, owner, of := sys.F, sys.ElemWork, sc.ColProc, sys.F.ColIndex()
	switch {
	case (sc.UnitProc == nil) == (sc.ColProc == nil):
		return fmt.Sprintf("UnitProc set %v, ColProc set %v; want exactly one", sc.UnitProc != nil, sc.ColProc != nil)
	case (sc.Part == nil) != (sc.UnitProc == nil):
		return fmt.Sprintf("Part set %v, UnitProc set %v; want both or neither", sc.Part != nil, sc.UnitProc != nil)
	case sc.UnitProc != nil:
		part := sys.Partition(opts.Part)
		if sc.Part != part {
			return "Part is not the partition of the mapping options"
		}
		if sc.F != part.F {
			return "F is not the factor of the schedule's partition"
		}
		if part.Opts.RelaxZeros == 0 && sc.F != f {
			return "F of an unrelaxed block schedule is not the analysis factor"
		}
		if part.F != f {
			f, elemWork = part.F, model.ElementWork(model.NewOps(part.F))
		}
		owner, of = sc.UnitProc, part.ElemUnit
		if len(owner) != len(part.Units) {
			return fmt.Sprintf("%d unit owners for %d units", len(owner), len(part.Units))
		}
	case sc.F != f:
		return "F of a column schedule is not the analysis factor"
	case len(owner) != f.N:
		return fmt.Sprintf("%d column owners for %d columns", len(owner), f.N)
	}
	for i, o := range owner {
		if o < 0 || int(o) >= sc.P {
			return fmt.Sprintf("owner %d of %d is no processor of P = %d", i, o, sc.P)
		}
	}
	if len(sc.ElemProc) != f.NNZ() {
		return fmt.Sprintf("%d element owners for %d elements", len(sc.ElemProc), f.NNZ())
	}
	work := make([]int64, sc.P)
	for q, o := range sc.ElemProc {
		if o != owner[of[q]] {
			return fmt.Sprintf("element %d on %d, its owner %d on %d", q, o, of[q], owner[of[q]])
		}
		work[o] += elemWork[q]
	}
	for k, w := range work {
		if sc.Work[k] != w {
			return fmt.Sprintf("processor %d has Work %d, its elements sum to %d", k, sc.Work[k], w)
		}
	}
	return ""
}

// columnsHold returns how a 2D schedule's bridge departs from its
// tiling, "" when it does not: Schedule() carries the analysis factor and
// no partition, its ColProc is set exactly when every column's elements
// share one owner (equivalently, every block column's tiles do: each
// non-empty tile of a block column holds an element of a column whose
// diagonal is in the diagonal tile), and then it keeps the owner-vector
// format.
func columnsHold(sys *strategy.Sys, s2 *part2d.Schedule2D) string {
	sc := s2.Schedule()
	switch want := traffic.OwnerPerColumn(sys.F, sc.ElemProc); {
	case sc.F != sys.F || sc.Part != nil:
		return "the bridge is not over the analysis factor alone"
	case want == nil && sc.ColProc != nil:
		return "ColProc set on a tiling that splits a column"
	case want != nil && sc.ColProc == nil:
		return "ColProc nil on a column-granular tiling"
	case want == nil:
		return ""
	}
	return ownersHold(sys, strategy.Options{}, sc)
}

// TestSchedulesKeepTheirOwners is the invariant behind traffic.Simulate's,
// FetchStats', strategy.Tasks', refine's and part2d.Lift's reading the
// owner vector and the structure a schedule carries without checking
// either: the suite under every registered 1D strategy (block-granular
// ones at grain 4 and 25 and at relaxation 0.3, refine over block and wrap
// under every objective, whose clones must keep F and Part) and every 2D
// mapper and lift, at five processor counts (two under -race and -short).
func TestSchedulesKeepTheirOwners(t *testing.T) {
	parts := []core.Options{{Grain: 4}, {Grain: 25}, {RelaxZeros: 0.3}}
	var configs []strategy.Options
	for _, po := range parts {
		configs = append(configs, strategy.Options{Part: po})
	}
	for _, base := range []string{"block", "wrap"} {
		for _, obj := range strategy.Objectives() {
			configs = append(configs, strategy.Options{Base: base, Objective: obj})
		}
	}
	schedules, granular2D, split2D := 0, 0, 0
	for _, tm := range gen.Suite() {
		sys := suiteSys(t, tm)
		n := sys.F.N
		procs := []int{1, 2, 3, 64, n + 1}
		if testing.Short() || raceBuild {
			procs = procs[1:3]
		}
		for _, p := range procs {
			for _, name := range strategy.Names() {
				for ci, opts := range configs {
					if (name == "refine") != (ci >= len(parts)) {
						continue
					}
					sc, err := strategy.Map(name, sys, p, opts)
					if err != nil {
						t.Fatal(err)
					}
					if sc.UnitProc == nil && ci > 0 && name != "refine" {
						continue // a column schedule does not read opts.Part
					}
					if msg := ownersHold(sys, opts, sc); msg != "" {
						t.Fatalf("%s %s P=%d %+v: %s", tm.Name, name, p, opts, msg)
					}
					schedules++
				}
			}
			check2D := func(label string, s2 *part2d.Schedule2D, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				if msg := columnsHold(sys, s2); msg != "" {
					t.Fatalf("%s %s P=%d: %s", tm.Name, label, p, msg)
				}
				if s2.Schedule().ColProc != nil {
					granular2D++
				} else {
					split2D++
				}
				schedules++
			}
			for _, name := range part2d.Names2D() {
				s2, err := part2d.Map2D(name, sys, p, strategy.Options{})
				check2D(name, s2, err)
			}
			for _, base := range part2d.LiftBases() {
				sc, err := strategy.Map(base, sys, p, strategy.Options{})
				if err != nil {
					t.Fatal(err)
				}
				s2, err := part2d.Lift(sys, sc, base)
				check2D("lift of "+base, s2, err)
			}
		}
	}
	if granular2D == 0 || split2D == 0 {
		t.Fatalf("%d column-granular and %d split 2D schedules; the 2D check needs both", granular2D, split2D)
	}
	t.Logf("%d schedules keep their owners (2D: %d column-granular, %d split)", schedules, granular2D, split2D)
}

// TestOwnersHoldCatchesReownedElement: the invariant check is not vacuous —
// one element moved off its column's or unit's owner is reported.
func TestOwnersHoldCatchesReownedElement(t *testing.T) {
	sys := suiteSys(t, gen.Suite()[0])
	const p = 3
	opts := strategy.Options{}
	for _, name := range []string{"wrap", "block"} {
		sc, err := strategy.Map(name, sys, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if msg := ownersHold(sys, opts, sc); msg != "" {
			t.Fatalf("%s: %s before the plant", name, msg)
		}
		q := len(sc.ElemProc) / 2
		sc.ElemProc[q] = (sc.ElemProc[q] + 1) % p
		if ownersHold(sys, opts, sc) == "" {
			t.Errorf("%s: element %d re-owned, and the check passed", name, q)
		}
	}
}
