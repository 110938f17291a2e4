package exec

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/numeric"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// Regression: the parallel solves used to index per-processor buckets
// without validating the processor count, so P = 0 panicked instead of
// returning an error.
func TestParallelSolveRejectsZeroProcs(t *testing.T) {
	p := buildPipe(gen.Grid5(4, 4), 4, 4)
	chol, err := numeric.Factorize(p.m, p.f)
	if err != nil {
		t.Fatal(err)
	}
	for _, np := range []int{0, -3} {
		if _, err := parallelSolve(numeric.KernelCholesky, p.f, chol.Val, np, make([]float64, p.m.N)); err == nil {
			t.Fatalf("expected error for P=%d", np)
		} else if !strings.Contains(err.Error(), "invalid processor count") {
			t.Fatalf("unexpected error: %v", err)
		}
	}
}

// The block compile entry shares the validator: corrupt unit owners error
// out instead of racing or panicking.
func TestParallelFactorizeRejectsBadOwners(t *testing.T) {
	p := buildPipe(gen.Grid5(4, 4), 4, 4)
	s := sched.BlockMap(p.part, 2)
	s.UnitProc[0] = 7
	if _, err := blockFactorize(p.m, p.part, s, numeric.KernelCholesky); err == nil {
		t.Fatal("expected error for out-of-range unit owner")
	}
	s.P = 0
	if _, err := blockFactorize(p.m, p.part, s, numeric.KernelCholesky); err == nil {
		t.Fatal("expected error for P=0 schedule")
	}
}

// A block schedule's element map taken from another partition of the
// same factor (other Part options: fewer units, or a padded structure) is
// Compile's error, not an index panic on the tasks or the factor.
func TestProgramBlocksRejectForeignSchedule(t *testing.T) {
	p := buildPipe(gen.Lap30(), 4, 4)
	coarse := core.NewPartition(p.f, core.Options{Grain: 25, MinClusterWidth: 4})
	relaxed := core.NewPartition(p.f, core.Options{Grain: 4, MinClusterWidth: 4, RelaxZeros: 0.3})
	if len(coarse.Units) >= len(p.part.Units) || relaxed.F.NNZ() == p.f.NNZ() {
		t.Fatalf("fixture: %d / %d units, %d / %d elements", len(coarse.Units), len(p.part.Units), relaxed.F.NNZ(), p.f.NNZ())
	}
	for name, c := range map[string]struct {
		part, other *core.Partition
		want        string
	}{
		"fewer units":    {coarse, p.part, "out-of-range task"},
		"other elements": {p.part, relaxed, "element-task map covers"},
	} {
		_, err := Compile(p.f, 4, BlockTasks(c.part, sched.BlockMap(c.part, 4)), c.other.ElemUnit)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

// Run promises errors, never panics: a matrix with an entry outside the
// program's factor structure used to walk ScatterA off the column.
func TestProgramRunRejectsForeignPattern(t *testing.T) {
	chain := gen.Grid5(1, 16) // tridiagonal: no fill, so column 0 holds rows {0, 1}
	p := &pipe{m: chain, f: symbolic.Analyze(chain)}
	tasks, elemTask := serialColumnTasks(p)
	grid := gen.Grid5(4, 4) // same n, entry (4, 0)
	if grid.N != chain.N {
		t.Fatalf("fixture: n = %d and %d", grid.N, chain.N)
	}
	for _, k := range []numeric.Kernel{numeric.KernelCholesky, numeric.KernelLDL} {
		_, err := compileRun(grid, p.f, 1, tasks, elemTask, k)
		if err == nil || !strings.Contains(err.Error(), "outside the factor structure") {
			t.Fatalf("%v: err = %v", k, err)
		}
		// The serial kernel starts from the same scatter: same entry, same
		// words, never the factor of the entries that did fit.
		if _, serr := k.Factorize(grid, p.f); serr == nil || err.Error() != "exec: "+serr.Error() {
			t.Fatalf("%v: serial kernel says %v, engine %v", k, serr, err)
		}
	}
}

// serialColumnTasks builds the trivially valid task graph for the 2D
// engine: one task per column on one processor, ID order = column order.
func serialColumnTasks(p *pipe) ([]Task, []int32) {
	tasks := make([]Task, p.f.N)
	elemTask := make([]int32, p.f.NNZ())
	for j := 0; j < p.f.N; j++ {
		tasks[j] = Task{ID: j, Proc: 0, Work: 1}
		if j > 0 {
			tasks[j].Preds = []int32{int32(j - 1)}
		}
		for q := p.f.ColPtr[j]; q < p.f.ColPtr[j+1]; q++ {
			elemTask[q] = int32(j)
		}
	}
	return tasks, elemTask
}

// compileRun is the whole engine on one input: Compile, then one Run.
func compileRun(m *sparse.Matrix, f *symbolic.Factor, p int, tasks []Task, elemTask []int32, k numeric.Kernel) (*NumericFactor, error) {
	pg, err := Compile(f, p, tasks, elemTask)
	if err != nil {
		return nil, err
	}
	nf, _, err := pg.Run(m, k, false)
	return nf, err
}

func TestParallelFactorize2DSerialGraph(t *testing.T) {
	p := buildPipe(gen.Lap30(), 4, 4)
	tasks, elemTask := serialColumnTasks(p)
	want, err := numeric.Factorize(p.m, p.f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := compileRun(p.m, p.f, 1, tasks, elemTask, numeric.KernelCholesky)
	if err != nil {
		t.Fatal(err)
	}
	for q := range want.Val {
		if math.Float64bits(got.Val[q]) != math.Float64bits(want.Val[q]) {
			t.Fatalf("position %d: %g vs %g", q, got.Val[q], want.Val[q])
		}
	}
}

func TestParallelFactorize2DRejectsMalformed(t *testing.T) {
	p := buildPipe(gen.Grid5(4, 4), 4, 4)
	tasks, elemTask := serialColumnTasks(p)
	cases := []struct {
		name string
		run  func() error
	}{
		{"zero procs", func() error {
			_, err := compileRun(p.m, p.f, 0, tasks, elemTask, numeric.KernelCholesky)
			return err
		}},
		{"no values", func() error {
			pat := *p.m
			pat.Val = nil
			_, err := compileRun(&pat, p.f, 1, tasks, elemTask, numeric.KernelCholesky)
			return err
		}},
		{"short elemTask", func() error {
			_, err := compileRun(p.m, p.f, 1, tasks, elemTask[:3], numeric.KernelCholesky)
			return err
		}},
		{"task out of range", func() error {
			bad := make([]int32, len(elemTask))
			copy(bad, elemTask)
			bad[0] = int32(len(tasks))
			_, err := compileRun(p.m, p.f, 1, tasks, bad, numeric.KernelCholesky)
			return err
		}},
		{"proc out of range", func() error {
			bad := make([]Task, len(tasks))
			copy(bad, tasks)
			bad[0].Proc = 5
			_, err := compileRun(p.m, p.f, 1, bad, elemTask, numeric.KernelCholesky)
			return err
		}},
		{"forward pred", func() error {
			bad := make([]Task, len(tasks))
			copy(bad, tasks)
			bad[0].Preds = []int32{1}
			_, err := compileRun(p.m, p.f, 1, bad, elemTask, numeric.KernelCholesky)
			return err
		}},
		{"diagonal held by a later task", func() error {
			bad := make([]int32, len(elemTask))
			copy(bad, elemTask)
			bad[p.f.ColPtr[1]] = 2
			_, err := compileRun(p.m, p.f, 1, tasks, bad, numeric.KernelCholesky)
			if err == nil || !strings.Contains(err.Error(), "held by later task 2") {
				return nil
			}
			return err
		}},
		{"task ID out of order", func() error {
			bad := make([]Task, len(tasks))
			copy(bad, tasks)
			bad[0].ID = 3
			_, err := compileRun(p.m, p.f, 1, bad, elemTask, numeric.KernelCholesky)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// The 2D kernel applies the same pivot rules as the serial kernels: a
// non-finite or nonpositive pivot is an error, not a silent NaN factor.
func TestParallelFactorize2DRejectsBadPivot(t *testing.T) {
	p := buildPipe(gen.Grid5(3, 3), 4, 4)
	tasks, elemTask := serialColumnTasks(p)
	m := *p.m
	m.Val = make([]float64, len(p.m.Val))
	copy(m.Val, p.m.Val)
	m.Val[m.ColPtr[0]] = math.Inf(1)
	if _, err := compileRun(&m, p.f, 1, tasks, elemTask, numeric.KernelCholesky); err == nil {
		t.Fatal("Cholesky: expected pivot error for +Inf diagonal")
	}
	if _, err := compileRun(&m, p.f, 1, tasks, elemTask, numeric.KernelLDL); err == nil {
		t.Fatal("LDL: expected pivot error for +Inf diagonal")
	}
}

// Zero-span runs must report Efficiency 1 / Idle 0 — never NaN, which
// encoding/json refuses and which used to leak out of the derived tables.
func TestZeroSpanEfficiencyPinned(t *testing.T) {
	if e := Efficiency(4, 0, 0); e != 1 {
		t.Fatalf("Efficiency(4, 0, 0) = %g, want 1", e)
	}
	r := SimResult{P: 4}
	if pct := r.IdlePct(); pct != 0 {
		t.Fatalf("zero-span IdlePct = %g, want 0", pct)
	}
	if _, err := json.Marshal(struct {
		Eff  float64
		Idle float64
	}{Efficiency(4, 0, 0), r.IdlePct()}); err != nil {
		t.Fatalf("zero-span summary is not JSON-encodable: %v", err)
	}
}

func TestMeasureFactorizeSmoke(t *testing.T) {
	p := buildPipe(gen.Grid5(6, 6), 4, 4)
	tasks, elemTask := serialColumnTasks(p)
	pg, err := Compile(p.f, 1, tasks, elemTask)
	if err != nil {
		t.Fatal(err)
	}
	mes, err := pg.Measure(p.m, MeasureOptions{Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mes.SerialNs < 1 || mes.ParallelNs < 1 || !(mes.Speedup > 0) {
		t.Fatalf("degenerate measurement: %+v", mes)
	}
	if mes.Repeats != 2 || mes.P != 1 {
		t.Fatalf("measurement metadata: %+v", mes)
	}
	if len(mes.Events) != len(tasks) {
		t.Fatalf("events %d, want one per task (%d)", len(mes.Events), len(tasks))
	}
	for i, ev := range mes.Events {
		if int(ev.Task) != i || ev.Finish < ev.Start || ev.Work != ev.Finish-ev.Start {
			t.Fatalf("event %d malformed: %+v", i, ev)
		}
	}
}
