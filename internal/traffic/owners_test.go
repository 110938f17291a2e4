package traffic_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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
			f, elemWork = part.F, model.Work(model.NewOps(part.F))
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
	elems := traffic.ElemOwners(sc)
	if len(elems) != f.NNZ() {
		return fmt.Sprintf("%d element owners for %d elements", len(elems), f.NNZ())
	}
	if sc.ElemProc != nil && len(sc.ElemProc) != f.NNZ() {
		return fmt.Sprintf("ElemProc holds %d owners for %d elements", len(sc.ElemProc), f.NNZ())
	}
	work := make([]int64, sc.P)
	for q, o := range elems {
		if o != owner[of[q]] {
			return fmt.Sprintf("element %d on %d, its owner %d on %d", q, o, of[q], owner[of[q]])
		}
		if sc.ElemProc != nil && sc.ElemProc[q] != o {
			return fmt.Sprintf("ElemProc puts element %d on %d, its owner %d on %d", q, sc.ElemProc[q], of[q], o)
		}
		work[o] += int64(elemWork[q])
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
	case !slices.Equal(sc.ColProc, want):
		return "ColProc is not the owner of the bridge's columns"
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
					if sc.ElemProc != nil {
						t.Fatalf("%s %s P=%d %+v: a 1D schedule holds one owner per element", tm.Name, name, p, opts)
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
// one element kept off its column's or unit's owner, and one column or unit
// re-owned without its work, are reported.
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
		elems := traffic.ElemOwners(sc)
		q := len(elems) / 2
		elems[q] = (elems[q] + 1) % p
		planted := *sc
		planted.ElemProc = elems
		if ownersHold(sys, opts, &planted) == "" {
			t.Errorf("%s: element %d kept off its owner, and the check passed", name, q)
		}
		owner, i := sc.ColProc, int(sys.F.ColIndex()[q])
		if sc.Part != nil {
			owner, i = sc.UnitProc, int(sc.Part.ElemUnit[q])
		}
		owner[i] = (owner[i] + 1) % p
		if ownersHold(sys, opts, sc) == "" {
			t.Errorf("%s: owner %d moved without its work, and the check passed", name, i)
		}
	}
}

// TestElemOwnersAndTotalsPinned pins, on every cell of ownerCells, the
// element owners every reader derives (sched.Schedule.AppendOwners, column
// by column) to the per-element derivation the constructors used to store
// (traffic.RefElemProc), and traffic.Simulate, FetchStats and an
// Incremental to the totals they gave while the schedules still stored it
// (testdata/totals.golden, written by the commit before the derivation
// moved to its readers).
func TestElemOwnersAndTotalsPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "totals.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		cell, totals, _ := strings.Cut(line, " simulate=")
		want[cell] = "simulate=" + totals
	}
	cells := 0
	ownerCells(t, func(cell string, sys *strategy.Sys, sc *sched.Schedule) {
		if sc.ElemProc != nil {
			t.Fatalf("%s: a 1D schedule holds one owner per element", cell)
		}
		if got, ref := traffic.ElemOwners(sc), traffic.RefElemProc(sc); !slices.Equal(got, ref) {
			t.Fatalf("%s: derived element owners differ from the reference derivation", cell)
		}
		w, ok := want[cell]
		if !ok {
			t.Fatalf("%s: no such cell in testdata/totals.golden", cell)
		}
		if got := cellTotals(sys, sc); got != w {
			t.Errorf("%s: %s, pinned %s", cell, got, w)
		}
		cells++
	})
	if !testing.Short() && !raceBuild && cells != len(want) {
		t.Fatalf("%d cells checked, testdata/totals.golden has %d", cells, len(want))
	}
}

// ownerCells is the grid the owner derivation and the traffic totals are
// pinned on: the suite under every registered 1D strategy at P = 1, 2, 4,
// 16, 64 and n + 1 (two under -race and -short), the block-granular ones
// also at grain 25 and at relaxation 0.3. fn receives each cell's label,
// system, options and schedule.
func ownerCells(t *testing.T, fn func(cell string, sys *strategy.Sys, sc *sched.Schedule)) {
	parts := []core.Options{{}, {Grain: 25}, {RelaxZeros: 0.3}}
	for _, tm := range gen.Suite() {
		sys := suiteSys(t, tm)
		procs := []int{1, 2, 4, 16, 64, sys.F.N + 1}
		if testing.Short() || raceBuild {
			procs = procs[1:3]
		}
		for _, name := range strategy.Names() {
			for _, p := range procs {
				for pi, po := range parts {
					sc, err := strategy.Map(name, sys, p, strategy.Options{Part: po})
					if err != nil {
						t.Fatal(err)
					}
					if pi > 0 && sc.Part == nil {
						break // a column schedule does not read opts.Part
					}
					pl := "P=" + strconv.Itoa(p)
					if p == sys.F.N+1 {
						pl = "P=n+1"
					}
					fn(fmt.Sprintf("%s %s %s g=%d rz=%g", tm.Name, name, pl, po.Grain, po.RelaxZeros), sys, sc)
				}
			}
		}
	}
}

// cellTotals is one cell's traffic.Simulate total, FetchStats volume and
// messages, and, at P <= 64, the total of an Incremental over the
// schedule's columns or unit blocks.
func cellTotals(sys *strategy.Sys, sc *sched.Schedule) string {
	tc := traffic.FetchStats(sc)
	out := fmt.Sprintf("simulate=%d vol=%d msgs=%d", traffic.Simulate(sc).Total, tc.TotalVol(), tc.TotalMsgs())
	if sc.P > 64 {
		return out
	}
	ops, boxes := sys.Ops, make([]traffic.Box, 0, sc.F.N)
	if part := sc.Part; part != nil {
		ops = model.NewOps(part.F)
		for _, u := range part.Units {
			boxes = append(boxes, traffic.Box{Col0: u.ColLo, Col1: u.ColHi + 1, Row0: u.RowLo, Row1: u.RowHi + 1})
		}
	} else {
		for j := 0; j < sc.F.N; j++ {
			boxes = append(boxes, traffic.Box{Col0: j, Col1: j + 1, Row0: j, Row1: sc.F.N})
		}
	}
	return out + fmt.Sprintf(" incremental=%d", traffic.NewIncremental(traffic.NewGroups(ops, boxes), sc).Total())
}
