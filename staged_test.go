package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/exec"
	"repro/internal/numeric"
)

// stagedRHS builds a deterministic right-hand side.
func stagedRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = float64((i*7)%13) - 6
	}
	return b
}

// bitEqual fails unless got and want are bitwise identical float slices.
func bitEqual(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: deviates at [%d]: %v vs %v", what, i, got[i], want[i])
		}
	}
}

// monolithic is the un-staged direct method of the paper's Section 2, run
// by hand: values permuted into elimination order, one serial kernel
// call, and the permute / sweep / unpermute of a solve. It is the
// reference every staged artifact must reproduce bit for bit.
type monolithic struct {
	an *repro.Analysis
	pm *repro.Matrix // permuted matrix with values
}

func newMonolithic(t *testing.T, an *repro.Analysis, a *repro.Matrix) monolithic {
	t.Helper()
	pm, err := an.PermutedWithValues(a)
	if err != nil {
		t.Fatal(err)
	}
	return monolithic{an, pm}
}

// solve wraps one permuted-order sweep in the permutation.
func (m monolithic) solve(b []float64, sweep func(pb []float64) []float64) []float64 {
	pb := make([]float64, len(b))
	for k, old := range m.an.Perm {
		pb[k] = b[old]
	}
	px := sweep(pb)
	x := make([]float64, len(b))
	for k, old := range m.an.Perm {
		x[old] = px[k]
	}
	return x
}

// TestStagedSolveBitIdenticalToMonolithic pins the staged contract on
// every suite matrix: AnalyzePattern -> Plan -> Factorize -> Solve
// reproduces the monolithic sequence — numeric.Factorize[LDL] on the
// permuted matrix and a hand-permuted serial solve — bit for bit, factor
// values and solution alike, for both kernels.
func TestStagedSolveBitIdenticalToMonolithic(t *testing.T) {
	for _, tm := range repro.TestMatrices() {
		t.Run(tm.Name, func(t *testing.T) {
			a := tm.Build()
			b := stagedRHS(a.N)
			an := analyze(t, a)
			ref := newMonolithic(t, an, a)
			pl := plan(t, an, "wrap", 4, repro.StrategyOptions{})

			fa, err := pl.Factorize(a, repro.KernelCholesky)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fa.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			chol, err := numeric.Factorize(ref.pm, an.F)
			if err != nil {
				t.Fatal(err)
			}
			bitEqual(t, fa.Val, chol.Val, "cholesky staged factor")
			bitEqual(t, got, ref.solve(b, chol.Solve), "cholesky staged solve")

			fl, err := pl.Factorize(a, repro.KernelLDL)
			if err != nil {
				t.Fatal(err)
			}
			gotL, err := fl.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			ldl, err := numeric.FactorizeLDL(ref.pm, an.F)
			if err != nil {
				t.Fatal(err)
			}
			bitEqual(t, fl.Val, ldl.Val, "ldl staged factor")
			bitEqual(t, gotL, ref.solve(b, ldl.Solve), "ldl staged solve")
		})
	}
}

// TestStagedSolveParallelBitIdenticalToMonolithic pins the parallel
// path on every suite matrix at P in {1, 4, 16}: a block-granular
// staged plan factored by the parallel engine and solved by
// Factor.SolveParallel reproduces the monolithic sequence — the block
// program compiled from the plan's partition and schedule, then the
// sweeps compiled for P workers, assembled by hand — bit for bit, that
// factor is the serial kernel's, and the solve is the serial sweeps'.
func TestStagedSolveParallelBitIdenticalToMonolithic(t *testing.T) {
	for _, tm := range repro.TestMatrices() {
		t.Run(tm.Name, func(t *testing.T) {
			a := tm.Build()
			b := stagedRHS(a.N)
			an := analyze(t, a)
			ref := newMonolithic(t, an, a)
			for _, p := range []int{1, 4, 16} {
				pl := plan(t, an, "block", p, paperOpts)
				fa, err := pl.FactorizeParallel(a, repro.KernelCholesky)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fa.SolveParallel(b)
				if err != nil {
					t.Fatal(err)
				}
				pg, err := exec.CompileBlocks(an.Sys().Partition(paperOpts.Part), pl.S1)
				if err != nil {
					t.Fatal(err)
				}
				nf, _, err := pg.Run(ref.pm, numeric.KernelCholesky, false)
				if err != nil {
					t.Fatal(err)
				}
				bitEqual(t, fa.Val, nf.Val, fmt.Sprintf("staged parallel factor P=%d", p))
				chol, err := numeric.Factorize(ref.pm, an.F)
				if err != nil {
					t.Fatal(err)
				}
				bitEqual(t, nf.Val, chol.Val, fmt.Sprintf("block program vs serial kernel P=%d", p))
				want := ref.solve(b, func(pb []float64) []float64 {
					sp, err := exec.CompileSolve(nf.F, p)
					if err != nil {
						t.Fatal(err)
					}
					px := append([]float64(nil), pb...)
					if err := sp.Run(numeric.KernelCholesky, nf.Val, px); err != nil {
						t.Fatal(err)
					}
					return px
				})
				bitEqual(t, got, want, fmt.Sprintf("staged parallel solve P=%d", p))
				bitEqual(t, got, ref.solve(b, chol.Solve), fmt.Sprintf("staged parallel solve vs serial sweeps P=%d", p))
			}
		})
	}
}

// TestStaged2DFactorBitIdenticalToMonolithic pins the 2D path: a staged
// 2D plan factored in parallel carries values bit-identical to the
// serial kernels on the permuted matrix, for both kernels, and shares the
// serial factor's content address.
func TestStaged2DFactorBitIdenticalToMonolithic(t *testing.T) {
	a := repro.LAP30()
	an := analyze(t, a)
	ref := newMonolithic(t, an, a)
	chol, err := numeric.Factorize(ref.pm, an.F)
	if err != nil {
		t.Fatal(err)
	}
	ldl, err := numeric.FactorizeLDL(ref.pm, an.F)
	if err != nil {
		t.Fatal(err)
	}
	b := stagedRHS(a.N)
	for _, p := range []int{1, 4, 16} {
		pl, err := an.Plan2D("rect2dcyclic", p, repro.StrategyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fa, err := pl.FactorizeParallel(a, repro.KernelCholesky)
		if err != nil {
			t.Fatal(err)
		}
		bitEqual(t, fa.Val, chol.Val, fmt.Sprintf("2D cholesky factor P=%d", p))

		fl, err := pl.FactorizeParallel(a, repro.KernelLDL)
		if err != nil {
			t.Fatal(err)
		}
		bitEqual(t, fl.Val, ldl.Val, fmt.Sprintf("2D ldl factor P=%d", p))

		// The 2D chain engines replay the serial update order, so the
		// parallel factor and a serial factor of any plan share one
		// content address.
		faSerial, err := plan(t, an, "wrap", p, repro.StrategyOptions{}).Factorize(a, repro.KernelCholesky)
		if err != nil {
			t.Fatal(err)
		}
		if fa.Key != faSerial.Key {
			t.Fatalf("2D chain factor key %s differs from serial key %s", fa.Key, faSerial.Key)
		}
		x2, err := fa.SolveParallel(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := repro.ResidualNorm(a, x2, b); r > 1e-8 {
			t.Fatalf("2D staged parallel solve residual %g", r)
		}
	}
}

// TestStagedCacheZeroRepeatWork asserts the service contract with store
// counters: a repeat request on the same pattern performs zero symbolic
// and mapping work (analysis and plan hits), new values on a known
// pattern re-run only the numeric stage, and a held Factor solves with
// no store traffic at all.
func TestStagedCacheZeroRepeatWork(t *testing.T) {
	a := repro.Grid9(20, 20)
	b := stagedRHS(a.N)
	cache := repro.NewCache(0)
	opts := repro.StrategyOptions{}

	cold, err := cache.Solve(a, "wrap", 8, opts, repro.KernelCholesky, b)
	if err != nil {
		t.Fatal(err)
	}
	byKind := cache.StatsByKind()
	for _, kind := range []string{"analysis", "plan", "factor"} {
		c := byKind[kind]
		if c.Misses != 1 || c.Hits != 0 {
			t.Fatalf("cold %s counters: %+v, want 1 miss 0 hits", kind, c)
		}
	}

	// Repeat request: every stage hits; the result is bitwise the same.
	warm, err := cache.Solve(a, "wrap", 8, opts, repro.KernelCholesky, b)
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, warm, cold, "warm staged solve")
	byKind = cache.StatsByKind()
	for _, kind := range []string{"analysis", "plan", "factor"} {
		c := byKind[kind]
		if c.Misses != 1 || c.Hits != 1 {
			t.Fatalf("warm %s counters: %+v, want 1 miss 1 hit", kind, c)
		}
	}

	// Same pattern, new values: zero symbolic and mapping work — only
	// the factor stage misses.
	a2 := repro.Grid9(20, 20)
	for i := range a2.Val {
		a2.Val[i] *= 2
	}
	if _, err := cache.Solve(a2, "wrap", 8, opts, repro.KernelCholesky, b); err != nil {
		t.Fatal(err)
	}
	byKind = cache.StatsByKind()
	if c := byKind["analysis"]; c.Misses != 1 || c.Hits != 2 {
		t.Fatalf("new-values analysis counters: %+v, want 1 miss 2 hits", c)
	}
	if c := byKind["plan"]; c.Misses != 1 || c.Hits != 2 {
		t.Fatalf("new-values plan counters: %+v, want 1 miss 2 hits", c)
	}
	if c := byKind["factor"]; c.Misses != 2 || c.Hits != 1 {
		t.Fatalf("new-values factor counters: %+v, want 2 misses 1 hit", c)
	}

	// A held Factor performs zero factorization (and zero store) work
	// per solve: counters are untouched by any number of solves.
	an, err := cache.Analysis(a)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := cache.Plan(an, "wrap", 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := cache.Factor(pl, a, repro.KernelCholesky)
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	for i := 0; i < 3; i++ {
		x, err := fa.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		bitEqual(t, x, cold, "held-factor solve")
	}
	if after := cache.Stats(); after != before {
		t.Fatalf("held-factor solves touched the store: %+v -> %+v", before, after)
	}
}

// TestStagedFactorFromCacheHitBitIdentical pins cache correctness: a
// Factor built through a cache-hit Analysis (second cache, same pattern
// object arriving twice) is bitwise identical to a cold, cache-free
// build.
func TestStagedFactorFromCacheHitBitIdentical(t *testing.T) {
	a := repro.Grid9(18, 18)
	cache := repro.NewCache(0)
	if _, err := cache.Analysis(a); err != nil {
		t.Fatal(err)
	}
	an, err := cache.Analysis(a) // hit
	if err != nil {
		t.Fatal(err)
	}
	if c := cache.StatsByKind()["analysis"]; c.Hits != 1 {
		t.Fatalf("analysis counters %+v, want a hit on the second request", c)
	}
	pl, err := cache.Plan(an, "wrap", 4, repro.StrategyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fromHit, err := cache.Factor(pl, a, repro.KernelCholesky)
	if err != nil {
		t.Fatal(err)
	}

	anCold, err := repro.AnalyzePattern(a)
	if err != nil {
		t.Fatal(err)
	}
	plCold, err := anCold.Plan("wrap", 4, repro.StrategyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := plCold.Factorize(a, repro.KernelCholesky)
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, fromHit.Val, cold.Val, "factor via cache-hit analysis")
	if fromHit.Key != cold.Key {
		t.Fatalf("factor keys differ: %s vs %s", fromHit.Key, cold.Key)
	}
}

// TestStagedConcurrentMappingAndSolves exercises the service workload
// under the race detector: one shared Analysis and one shared Cache
// serving concurrent strategy mapping and staged solves.
func TestStagedConcurrentMappingAndSolves(t *testing.T) {
	a := repro.LAP30()
	an := analyze(t, a)
	cache := repro.NewCache(0)
	b := stagedRHS(a.N)
	fa, err := plan(t, an, "wrap", 8, repro.StrategyOptions{}).Factorize(a, repro.KernelCholesky)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fa.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"wrap", "block", "contiguous", "blockcyclic"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				name := names[(g+i)%len(names)]
				if _, err := an.Plan(name, 4+g, repro.StrategyOptions{}); err != nil {
					t.Errorf("Plan(%s): %v", name, err)
					return
				}
				x, err := cache.Solve(a, "wrap", 8, repro.StrategyOptions{}, repro.KernelCholesky, b)
				if err != nil {
					t.Errorf("staged solve: %v", err)
					return
				}
				for k := range x {
					if x[k] != want[k] {
						t.Errorf("goroutine %d: staged solve deviates at [%d]", g, k)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := cache.Stats()
	if st.Misses != 3 {
		t.Fatalf("concurrent staged solves: %d misses, want 3 (one build per stage)", st.Misses)
	}
}
