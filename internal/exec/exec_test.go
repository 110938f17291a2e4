package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/order"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

type pipe struct {
	m    *sparse.Matrix
	f    *symbolic.Factor
	part *core.Partition
	ops  *model.Ops
	ew   []int64
}

func buildPipe(m *sparse.Matrix, g, w int) *pipe {
	pm, err := m.Permute(order.MMD(m))
	if err != nil {
		panic(err)
	}
	f := symbolic.Analyze(pm)
	ops := model.NewOps(f)
	return &pipe{
		m:    pm,
		f:    f,
		part: core.NewPartition(f, core.Options{Grain: g, MinClusterWidth: w}),
		ops:  ops,
		ew:   model.ElementWork(ops),
	}
}

// columnTasks is ColumnTasksMapped under the wrap mapping: column j on
// processor j mod p.
func columnTasks(f *symbolic.Factor, ops *model.Ops, elemWork []int64, p int) []Task {
	sched.MustProcs("exec", p)
	owner := make([]int32, f.N)
	for j := range owner {
		owner[j] = int32(j % p)
	}
	return ColumnTasksMapped(f, ops, elemWork, owner)
}

// blockFactorize is the whole engine on one block schedule: CompileBlocks,
// then one Run.
func blockFactorize(m *sparse.Matrix, part *core.Partition, s *sched.Schedule, k numeric.Kernel) (*NumericFactor, error) {
	pg, err := CompileBlocks(part, s)
	if err != nil {
		return nil, err
	}
	nf, _, err := pg.Run(m, k, false)
	return nf, err
}

// firstBitDiff returns the first position where got and want differ in
// their bits, -1 when there is none.
func firstBitDiff(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for q := range want {
		if math.Float64bits(got[q]) != math.Float64bits(want[q]) {
			return q
		}
	}
	return -1
}

func TestMakespanSingleProcEqualsTotal(t *testing.T) {
	p := buildPipe(gen.Lap30(), 4, 4)
	s := sched.BlockMap(p.part, 1)
	r := Simulate(BlockTasks(p.part, s), 1, SimOptions{})
	if r.Makespan != r.TotalWork || r.Idle != 0 {
		t.Fatalf("P=1: makespan %d, total %d, idle %d", r.Makespan, r.TotalWork, r.Idle)
	}
	if r.Efficiency != 1 {
		t.Fatalf("P=1 efficiency %g", r.Efficiency)
	}
}

func TestMakespanBounds(t *testing.T) {
	// Makespan is at least max(critical path, Wmax) and at most total work.
	fc := func(seed int64) bool {
		p := buildPipe(gen.Random(60, 1.4, seed), 4, 3)
		for _, np := range []int{2, 4, 8} {
			s := sched.BlockMap(p.part, np)
			tasks := BlockTasks(p.part, s)
			r := Simulate(tasks, np, SimOptions{})
			cp := CriticalPath(tasks)
			if r.Makespan < cp || r.Makespan < s.MaxWork() || r.Makespan > r.TotalWork {
				return false
			}
			if r.Idle != int64(np)*r.Makespan-r.TotalWork {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fc, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestMakespanWrapColumnTasks(t *testing.T) {
	p := buildPipe(gen.Lap30(), 4, 4)
	for _, np := range []int{4, 16} {
		tasks := columnTasks(p.f, p.ops, p.ew, np)
		r := Simulate(tasks, np, SimOptions{})
		if r.Makespan <= 0 || r.Efficiency <= 0 || r.Efficiency > 1 {
			t.Fatalf("P=%d: implausible result %+v", np, r)
		}
	}
}

func TestDelayEfficiencyBelowBalanceBound(t *testing.T) {
	// Efficiency with dependency delays can never beat the paper's
	// no-delay bound e = 1/(1+A).
	p := buildPipe(gen.Lap30(), 25, 4)
	for _, np := range []int{4, 16, 32} {
		s := sched.BlockMap(p.part, np)
		r := Simulate(BlockTasks(p.part, s), np, SimOptions{})
		bound := s.Efficiency()
		if r.Efficiency > bound+1e-9 {
			t.Errorf("P=%d: delay efficiency %.4f above bound %.4f", np, r.Efficiency, bound)
		}
	}
}

func TestCriticalPathChain(t *testing.T) {
	tasks := []Task{
		{ID: 0, Proc: 0, Work: 5},
		{ID: 1, Proc: 1, Work: 3, Preds: []int32{0}},
		{ID: 2, Proc: 0, Work: 2, Preds: []int32{1}},
		{ID: 3, Proc: 1, Work: 1},
	}
	if cp := CriticalPath(tasks); cp != 10 {
		t.Fatalf("critical path = %d, want 10", cp)
	}
	r := Simulate(tasks, 2, SimOptions{})
	if r.Makespan != 10 {
		t.Fatalf("makespan = %d, want 10 (chain dominates)", r.Makespan)
	}
}

func TestParallelFactorizeMatchesSequential(t *testing.T) {
	for _, tm := range gen.Suite() {
		p := buildPipe(tm.Build(), 25, 4)
		s := sched.BlockMap(p.part, 8)
		got, err := blockFactorize(p.m, p.part, s, numeric.KernelCholesky)
		if err != nil {
			t.Fatalf("%s: %v", tm.Name, err)
		}
		want, err := numeric.Factorize(p.m, p.f)
		if err != nil {
			t.Fatalf("%s: sequential: %v", tm.Name, err)
		}
		if q := firstBitDiff(got.Val, want.Val); q >= 0 {
			t.Errorf("%s: block program diverged from sequential at position %d", tm.Name, q)
		}
	}
}

func TestParallelFactorizeRandomProperty(t *testing.T) {
	fc := func(seed int64) bool {
		m := gen.Random(45, 1.3, seed)
		p := buildPipe(m, 3, 3)
		s := sched.BlockMap(p.part, 4)
		got, err := blockFactorize(p.m, p.part, s, numeric.KernelCholesky)
		if err != nil {
			return false
		}
		want, err := numeric.Factorize(p.m, p.f)
		if err != nil {
			return false
		}
		return firstBitDiff(got.Val, want.Val) < 0
	}
	if err := quick.Check(fc, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelFactorizeRejectsPatternOnly(t *testing.T) {
	p := buildPipe(gen.Grid5(3, 3), 4, 4)
	bare := &sparse.Matrix{N: p.m.N, ColPtr: p.m.ColPtr, RowInd: p.m.RowInd}
	s := sched.BlockMap(p.part, 2)
	if _, err := blockFactorize(bare, p.part, s, numeric.KernelCholesky); err == nil {
		t.Fatal("expected error for pattern-only matrix")
	}
}

func TestParallelFactorizeNotSPD(t *testing.T) {
	m := gen.Grid5(4, 4)
	// Make it indefinite.
	m.Val[0] = -100
	p := &pipe{m: m, f: symbolic.Analyze(m)}
	p.part = core.NewPartition(p.f, core.Options{Grain: 4, MinClusterWidth: 4})
	s := sched.BlockMap(p.part, 3)
	if _, err := blockFactorize(m, p.part, s, numeric.KernelCholesky); err == nil {
		t.Fatal("expected not-SPD error")
	}
}

// The compiled block program on LAP30 beside the serial kernel: the
// ROADMAP layer row "1D block plan" (g = 25, P = 8) and the EXPERIMENTS
// table around it. Compilation is once per plan and stays outside.
func BenchmarkParallelFactorizeLap30(b *testing.B) {
	lap := buildPipe(gen.Lap30(), 4, 4)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := numeric.Factorize(lap.m, lap.f); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, g := range []int{4, 25} {
		part := core.NewPartition(lap.f, core.Options{Grain: g, MinClusterWidth: 4})
		for _, procs := range []int{1, 2, 8} {
			pg, err := CompileBlocks(part, sched.BlockMap(part, procs))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("g=%d/P=%d", g, procs), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := pg.Run(lap.m, numeric.KernelCholesky, false); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func TestParallelLDLMatchesSequential(t *testing.T) {
	// The Section 5 generality claim: the same partition, schedule and
	// dependency graph drive a different factorization kernel.
	for _, tm := range gen.Suite()[:3] {
		p := buildPipe(tm.Build(), 25, 4)
		s := sched.BlockMap(p.part, 8)
		got, err := blockFactorize(p.m, p.part, s, numeric.KernelLDL)
		if err != nil {
			t.Fatalf("%s: %v", tm.Name, err)
		}
		want, err := numeric.FactorizeLDL(p.m, p.f)
		if err != nil {
			t.Fatalf("%s: %v", tm.Name, err)
		}
		if q := firstBitDiff(got.Val, want.Val); q >= 0 {
			t.Errorf("%s: block program LDL diverged at position %d", tm.Name, q)
		}
	}
}

func TestParallelLDLIndefinite(t *testing.T) {
	// An indefinite diagonal shift: Cholesky fails, LDL^T succeeds in
	// parallel too (natural ordering keeps the test deterministic).
	m := gen.Grid5(6, 6)
	m.Val[0] = -3 // perturb one diagonal entry to flip an eigenvalue
	f := symbolic.Analyze(m)
	part := core.NewPartition(f, core.Options{Grain: 8, MinClusterWidth: 4})
	s := sched.BlockMap(part, 4)
	if _, err := blockFactorize(m, part, s, numeric.KernelCholesky); err == nil {
		t.Fatal("parallel Cholesky should reject the indefinite matrix")
	}
	got, err := blockFactorize(m, part, s, numeric.KernelLDL)
	if err != nil {
		t.Fatalf("parallel LDL: %v", err)
	}
	want, err := numeric.FactorizeLDL(m, f)
	if err != nil {
		t.Fatal(err)
	}
	if q := firstBitDiff(got.Val, want.Val); q >= 0 {
		t.Fatalf("value %d differs", q)
	}
}

// TestParallelSolveMatchesSequential holds the compiled sweeps to the
// serial ones bit for bit on random patterns: every sum runs in the serial
// order, so there is no tolerance to grant.
func TestParallelSolveMatchesSequential(t *testing.T) {
	fc := func(seed int64) bool {
		m := gen.Random(50, 1.3, seed)
		p := buildPipe(m, 4, 3)
		chol, err := numeric.Factorize(p.m, p.f)
		if err != nil {
			return false
		}
		b := solveRHS(p.m.N)
		want := chol.Solve(b)
		for _, np := range []int{1, 2, 4, 8, 51} {
			got, err := parallelSolve(numeric.KernelCholesky, p.f, chol.Val, np, b)
			if err != nil || firstBitDiff(got, want) >= 0 {
				return false
			}
		}
		return true
	}
	// Fixed source: the cases must not depend on quick's time-based
	// default seeding.
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(fc, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestParallelSolveSuite(t *testing.T) {
	for _, tm := range gen.Suite()[:2] {
		p := buildPipe(tm.Build(), 25, 4)
		chol, err := numeric.Factorize(p.m, p.f)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, p.m.N)
		for i := range b {
			b[i] = 1
		}
		x, err := parallelSolve(numeric.KernelCholesky, p.f, chol.Val, 8, b)
		if err != nil {
			t.Fatalf("%s: %v", tm.Name, err)
		}
		if r := numeric.ResidualNorm(p.m, x, b); r > 1e-9 {
			t.Errorf("%s: parallel solve residual %g", tm.Name, r)
		}
	}
}

// TestParallelSolveEveryP runs the compiled sweeps at P in {1, 4, 16, 64}
// on LAP30 and on a small matrix where P >= n, each solution bitwise the
// serial one. (The factorization schedule no longer enters the sweeps, so
// the sweep over the strategy registry this test used to be is a sweep
// over P.) Under -race this is the solver's data-race exercise.
func TestParallelSolveEveryP(t *testing.T) {
	for name, m := range map[string]*sparse.Matrix{
		"LAP30":     gen.Lap30(),
		"grid9-6x6": gen.Grid9(6, 6), // n = 36 < 64: exercises P >= n
	} {
		p := buildPipe(m, 25, 4)
		chol, err := numeric.Factorize(p.m, p.f)
		if err != nil {
			t.Fatal(err)
		}
		b := solveRHS(p.m.N)
		want := chol.Solve(b)
		for _, np := range []int{1, 4, 16, 64} {
			got, err := parallelSolve(numeric.KernelCholesky, p.f, chol.Val, np, b)
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, np, err)
			}
			if q := firstBitDiff(got, want); q >= 0 {
				t.Fatalf("%s P=%d: x[%d] = %v, serial %v", name, np, q, got[q], want[q])
			}
		}
	}
}

// TestParallelSolveErrors: a short rhs, a foreign value vector and an
// invalid kernel are error values, never panics.
func TestParallelSolveErrors(t *testing.T) {
	p := buildPipe(gen.Grid5(4, 4), 4, 4)
	chol, err := numeric.Factorize(p.m, p.f)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := CompileSolve(p.f, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		k    numeric.Kernel
		val  []float64
		n    int
		want string
	}{
		"short rhs":    {numeric.KernelCholesky, chol.Val, 3, "rhs length 3, want 16"},
		"long rhs":     {numeric.KernelLDL, chol.Val, 17, "rhs length 17, want 16"},
		"bad kernel":   {numeric.Kernel(7), chol.Val, 16, "unknown kernel 7"},
		"short values": {numeric.KernelCholesky, chol.Val[:5], 16, "5 factor values"},
	} {
		if err := sp.Run(c.k, c.val, make([]float64, c.n)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}
