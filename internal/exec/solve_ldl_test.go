package exec

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/numeric"
	"repro/internal/sched"
)

func TestParallelSolveLDLMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		m := gen.Random(60, 1.4, seed)
		p := buildPipe(m, 4, 3)
		ldl, err := numeric.FactorizeLDL(p.m, p.f)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, p.m.N)
		for i := range b {
			b[i] = float64((i*17)%11) - 5
		}
		want := ldl.Solve(b)
		var scale float64
		for i := range want {
			if a := math.Abs(want[i]); a > scale {
				scale = a
			}
		}
		for _, np := range []int{1, 2, 4, 8} {
			for _, s := range []*sched.Schedule{
				sched.BlockMap(p.part, np),
				sched.WrapMap(p.f, p.ew, np),
			} {
				got, err := ParallelSolve(numeric.KernelLDL, ldl.F, ldl.Val, s, b)
				if err != nil {
					t.Fatalf("seed %d P=%d: %v", seed, np, err)
				}
				for i := range want {
					// Fan-in vs scatter summation order; allow a
					// conditioning-scaled tolerance.
					if math.Abs(got[i]-want[i]) > 1e-7*(1+scale) {
						t.Fatalf("seed %d P=%d: x[%d] = %g, serial %g", seed, np, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestParallelSolveLDLDeterministic pins run-to-run bit-identity: every
// component is computed by one owner with a fixed reduction order, so the
// result must not depend on goroutine interleaving.
func TestParallelSolveLDLDeterministic(t *testing.T) {
	p := buildPipe(gen.Grid9(12, 12), 16, 4)
	ldl, err := numeric.FactorizeLDL(p.m, p.f)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, p.m.N)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	s := sched.WrapMap(p.f, p.ew, 8)
	first, err := ParallelSolve(numeric.KernelLDL, ldl.F, ldl.Val, s, b)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		again, err := ParallelSolve(numeric.KernelLDL, ldl.F, ldl.Val, s, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("run %d: x[%d] changed bitwise: %g vs %g", r, i, again[i], first[i])
			}
		}
	}
}

// TestParallelSolveLDLIndefinite exercises the case Cholesky cannot
// reach: a symmetric indefinite system solved end to end in parallel.
func TestParallelSolveLDLIndefinite(t *testing.T) {
	m := gen.Grid5(6, 6)
	m.Val[0] = -3 // flip one eigenvalue
	p := buildPipe(m, 8, 4)
	if _, err := numeric.Factorize(p.m, p.f); err == nil {
		t.Fatal("matrix unexpectedly positive definite")
	}
	ldl, err := numeric.FactorizeLDL(p.m, p.f)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, p.m.N)
	for i := range b {
		b[i] = 1
	}
	s := sched.BlockMap(p.part, 4)
	x, err := ParallelSolve(numeric.KernelLDL, ldl.F, ldl.Val, s, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := numeric.ResidualNorm(p.m, x, b); r > 1e-8 {
		t.Fatalf("indefinite parallel LDL solve residual %g", r)
	}
}

func TestParallelSolveLDLErrors(t *testing.T) {
	p := buildPipe(gen.Grid5(4, 4), 4, 4)
	ldl, err := numeric.FactorizeLDL(p.m, p.f)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.BlockMap(p.part, 2)
	if _, err := ParallelSolve(numeric.KernelLDL, ldl.F, ldl.Val, s, make([]float64, 3)); err == nil {
		t.Fatal("expected rhs length error")
	}
	bad := &sched.Schedule{P: 0, ElemProc: make([]int32, p.f.NNZ())}
	if _, err := ParallelSolve(numeric.KernelLDL, ldl.F, ldl.Val, bad, make([]float64, p.f.N)); err == nil {
		t.Fatal("expected processor count error")
	}
}
