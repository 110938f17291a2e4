package exec

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/numeric"
)

func TestParallelSolveLDLMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		m := gen.Random(60, 1.4, seed)
		p := buildPipe(m, 4, 3)
		ldl, err := numeric.FactorizeLDL(p.m, p.f)
		if err != nil {
			t.Fatal(err)
		}
		b := solveRHS(p.m.N)
		want := append([]float64(nil), b...)
		numeric.KernelLDL.Solve(p.f, ldl.Val, want)
		for _, np := range []int{1, 2, 4, 8} {
			got, err := parallelSolve(numeric.KernelLDL, p.f, ldl.Val, np, b)
			if err != nil {
				t.Fatalf("seed %d P=%d: %v", seed, np, err)
			}
			if q := firstBitDiff(got, want); q >= 0 {
				t.Fatalf("seed %d P=%d: x[%d] = %v, serial %v", seed, np, q, got[q], want[q])
			}
		}
	}
}

// TestParallelSolveLDLDeterministic pins run-to-run bit-identity: every
// component is computed by one worker with a fixed reduction order, so the
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
	first, err := parallelSolve(numeric.KernelLDL, p.f, ldl.Val, 8, b)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		again, err := parallelSolve(numeric.KernelLDL, p.f, ldl.Val, 8, b)
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
	x, err := parallelSolve(numeric.KernelLDL, p.f, ldl.Val, 4, b)
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
	if _, err := parallelSolve(numeric.KernelLDL, p.f, ldl.Val, 2, make([]float64, 3)); err == nil {
		t.Fatal("expected rhs length error")
	}
	if _, err := parallelSolve(numeric.KernelLDL, p.f, ldl.Val, 0, make([]float64, p.f.N)); err == nil {
		t.Fatal("expected processor count error")
	}
}
