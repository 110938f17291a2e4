package part2d

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/strategy"
)

// TestCol2DMakespanBitIdentical1D is the acceptance pin on the 2D
// makespan simulators: on column-granular tilings (every 1D strategy
// lifted through col2d) the merged tile-segment task graph collapses to
// the 1D column task graph, so all four 2D simulators — static and
// dynamic, compute-only and comm-aware — return results bit-identical to
// their 1D counterparts at P in {1, 4, 16}.
func TestCol2DMakespanBitIdentical1D(t *testing.T) {
	sys := lapSys(t)
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	for _, base := range LiftBases() {
		opts := strategy.Options{Base: base}
		for _, p := range []int{1, 4, 16} {
			sc, err := strategy.Map(base, sys, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := Map2D("col2d", sys, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := "col2d(" + base + ")"
			if got, want := simulate(sys, s2, exec.SimOptions{}), simulate1D(sys, opts, sc, exec.SimOptions{}); got != want {
				t.Errorf("%s P=%d static: 2D %+v != 1D %+v", label, p, got, want)
			}
			if got, want := simulate(sys, s2, exec.SimOptions{Dynamic: true}), simulate1D(sys, opts, sc, exec.SimOptions{Dynamic: true}); got != want {
				t.Errorf("%s P=%d dynamic: 2D %+v != 1D %+v", label, p, got, want)
			}
			if got, want := simulate(sys, s2, exec.SimOptions{Comm: cm}), simulate1D(sys, opts, sc, exec.SimOptions{Comm: cm}); got != want {
				t.Errorf("%s P=%d static comm: 2D %+v != 1D %+v", label, p, got, want)
			}
			if got, want := simulate(sys, s2, exec.SimOptions{Dynamic: true, Comm: cm}), simulate1D(sys, opts, sc, exec.SimOptions{Dynamic: true, Comm: cm}); got != want {
				t.Errorf("%s P=%d dynamic comm: 2D %+v != 1D %+v", label, p, got, want)
			}
		}
	}
}

// TestMakespan2DZeroModel locks the zero-CommModel contract for the
// native 2D mappers: a zero model charges nothing, so the comm-aware
// simulators reproduce the compute-only ones bit for bit.
func TestMakespan2DZeroModel(t *testing.T) {
	sys := lapSys(t)
	var zero exec.CommModel
	opts := strategy.Options{MaxMoves: 8}
	for _, name := range []string{"rect2d", "rect2dlpt", "rect2dcyclic"} {
		for _, p := range []int{4, 16} {
			s2, err := Map2D(name, sys, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := simulate(sys, s2, exec.SimOptions{Comm: zero})
			want := simulate(sys, s2, exec.SimOptions{})
			got.Comm = want.Comm // Comm is the only field allowed to differ (it is 0 both ways)
			if got != want {
				t.Errorf("%s P=%d static: zero model %+v != compute-only %+v", name, p, got, want)
			}
			gd := simulate(sys, s2, exec.SimOptions{Dynamic: true, Comm: zero})
			wd := simulate(sys, s2, exec.SimOptions{Dynamic: true})
			gd.Comm = wd.Comm
			if gd != wd {
				t.Errorf("%s P=%d dynamic: zero model %+v != compute-only %+v", name, p, gd, wd)
			}
		}
	}
}

// TestTasks2DStructure verifies the merged tile-segment task graph's
// invariants on a native 2D schedule: topological ID order, strictly
// smaller predecessors, sorted duplicate-free predecessor lists, work
// conservation, and fetch volumes partitioning the 2D traffic total.
func TestTasks2DStructure(t *testing.T) {
	sys := lapSys(t)
	s2, err := Map2D("rect2dlpt", sys, 16, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tasks, elemTask := Tasks(sys.Ops, sys.ElemWork, s2)
	var total int64
	for i, task := range tasks {
		if task.ID != i {
			t.Fatalf("task %d has ID %d", i, task.ID)
		}
		total += task.Work
		for k, pr := range task.Preds {
			if int(pr) >= i {
				t.Fatalf("task %d depends on later task %d", i, pr)
			}
			if k > 0 && task.Preds[k-1] >= pr {
				t.Fatalf("task %d preds not strictly sorted: %v", i, task.Preds)
			}
		}
	}
	if total != sys.Total {
		t.Errorf("task work sums to %d, want %d", total, sys.Total)
	}
	for q, task := range elemTask {
		if s2.ElemProc[q] != tasks[task].Proc {
			t.Fatalf("element %d on proc %d but its task %d on %d",
				q, s2.ElemProc[q], task, tasks[task].Proc)
		}
	}
	tc := FetchStats(sys.Ops, s2, len(tasks), elemTask)
	if got, want := tc.TotalVol(), Traffic(sys.Ops, s2).Total; got != want {
		t.Errorf("fetch volumes sum to %d, 2D traffic total %d", got, want)
	}
}

// TestRect2DTrafficLAP30 is the acceptance regression: the rect2d
// descent's total 2D traffic never exceeds the column-flattened
// rectilinear schedule's on LAP30 at P in {16, 64} — keeping the tile
// structure is never worse than flattening it, and strictly better here.
func TestRect2DTrafficLAP30(t *testing.T) {
	sys := lapSys(t)
	for _, p := range []int{16, 64} {
		sc, err := strategy.Map("rectilinear", sys, p, strategy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		flat := strategy.Traffic(sys, strategy.Options{}, sc).Total
		s2, err := Map2D("rect2d", sys, p, strategy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := Traffic(sys.Ops, s2).Total
		if got >= flat {
			t.Errorf("P=%d: rect2d traffic %d did not improve on flattened %d (expected strict win)", p, got, flat)
		}
	}
}
