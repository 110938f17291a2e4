// External test package: strategy imports exec, so the cross-registry
// solve sweep cannot live inside package exec.
package exec_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/strategy"
	"repro/internal/symbolic"
)

// TestParallelSolveEveryStrategy runs the parallel triangular solves under
// every registered 1D mapping strategy at P in {1, 4, 16, 64}, on LAP30
// and on a small matrix where P >= n, checking each solution against the
// serial solve (summation orders differ across owners, so the comparison
// is tolerance-based, scaled by the solution magnitude). Under -race this
// is the solver's data-race exercise across the whole registry.
func TestParallelSolveEveryStrategy(t *testing.T) {
	type fixture struct {
		name string
		m    *sparse.Matrix
	}
	for _, fx := range []fixture{
		{"LAP30", gen.Lap30()},
		{"grid9-6x6", gen.Grid9(6, 6)}, // n = 36 < 64: exercises P >= n
	} {
		pm, err := fx.m.Permute(order.MMD(fx.m))
		if err != nil {
			t.Fatal(err)
		}
		f := symbolic.Analyze(pm)
		ops := model.NewOps(f)
		ew := model.ElementWork(ops)
		sys := strategy.NewSys(f, ops, ew)
		chol, err := numeric.Factorize(pm, f)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, pm.N)
		for i := range b {
			b[i] = float64((i*7)%5) - 2
		}
		want := chol.Solve(b)
		var scale float64
		for i := range want {
			if a := math.Abs(want[i]); a > scale {
				scale = a
			}
		}
		opts := strategy.Options{Part: core.Options{Grain: 25, MinClusterWidth: 4}}
		for _, name := range strategy.Names() {
			for _, p := range []int{1, 4, 16, 64} {
				sc, err := strategy.Map(name, sys, p, opts)
				if err != nil {
					// Some strategies legitimately refuse degenerate shapes
					// (e.g. more processors than clusters); refusal is not a
					// solver failure.
					t.Logf("%s %s P=%d: mapper refused: %v", fx.name, name, p, err)
					continue
				}
				got, err := exec.ParallelSolve(numeric.KernelCholesky, chol.F, chol.Val, sc, b)
				if err != nil {
					t.Fatalf("%s %s P=%d: %v", fx.name, name, p, err)
				}
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-7*(1+scale) {
						t.Fatalf("%s %s P=%d: x[%d] = %g, want %g",
							fx.name, name, p, i, got[i], want[i])
					}
				}
			}
		}
	}
}
