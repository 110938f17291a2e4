package pipeline

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/numeric"
	"repro/internal/order"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/strategy"
	"repro/internal/symbolic"
)

func bitEqual(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d differs bitwise: %g vs %g", what, i, got[i], want[i])
		}
	}
}

// TestAnalysisMatchesDirectPipeline pins the Analysis artifact against
// the hand-rolled pipeline: same ordering, same symbolic factor, and
// permuteValues bitwise equal to a structural Permute.
func TestAnalysisMatchesDirectPipeline(t *testing.T) {
	a := gen.Lap30()
	an, err := NewAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	perm := order.MMD(a)
	for i := range perm {
		if an.Perm[i] != perm[i] {
			t.Fatalf("ordering differs at %d", i)
		}
	}
	pm, err := a.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	if an.F.NNZ() == 0 || an.Permuted.NNZ() != pm.NNZ() {
		t.Fatal("permuted pattern differs")
	}
	pv, err := an.permuteValues(a)
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, pv, pm.Val, "permuteValues vs Permute")
	if an.Pattern.Val != nil || an.Permuted.Val != nil {
		t.Fatal("analysis retained numeric values; it must be pattern-only")
	}
}

// TestAnalysisWorkBytes: an analysis holds its element work once, at four
// bytes an element. Built and kept, the work vectors of NewAnalysis and of
// its Sys, for Grid9(60,60) and every suite matrix, retain no more than a
// bare array of 4·nnz(L) bytes does, rounded up to the allocator's size
// classes the same way (+ 1 KiB).
func TestAnalysisWorkBytes(t *testing.T) {
	const slack = 1 << 10
	ms := map[string]*sparse.Matrix{"Grid9(60,60)": gen.Grid9(60, 60)}
	for _, tm := range gen.Suite() {
		ms[tm.Name] = tm.Build()
	}
	for name, m := range ms {
		nnz := 0
		held := heldBy(func() []any {
			an, err := NewAnalysis(m)
			if err != nil {
				t.Fatal(err)
			}
			nnz = an.F.NNZ()
			return []any{an.ElemWork, an.Sys().ElemWork}
		})
		want := heldBy(func() []byte { return make([]byte, 4*nnz) })
		if held > want+slack {
			t.Errorf("%s: the analysis holds %d bytes of work for %d elements, %.2f an element; an array of 4 bytes an element holds %d (+%d)",
				name, held, nnz, float64(held)/float64(nnz), want, slack)
		}
	}
}

// heldBy is what build's result keeps on the heap, the least of three
// tries.
func heldBy[T any](build func() T) uint64 {
	held := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		x := build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(x)
		held = min(held, after.HeapAlloc-before.HeapAlloc)
	}
	return held
}

// TestFactorChainEnginesBitIdentical pins the key-sharing contract: the
// serial kernel, the 2D engine and the column-granular 1D engine
// produce bitwise identical values (so one cache key serves all three),
// for both kernels.
func TestFactorChainEnginesBitIdentical(t *testing.T) {
	a := gen.Lap30()
	an, err := NewAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kernel{Cholesky, LDL} {
		base, err := an.Plan("wrap", 4, strategy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		serial, err := base.Factorize(a, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3, 4, 16} {
			pl1, err := an.Plan("wrap", p, strategy.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fa1, err := pl1.FactorizeParallel(a, k)
			if err != nil {
				t.Fatal(err)
			}
			bitEqual(t, fa1.Val, serial.Val, "lifted 1D engine "+k.String())
			if fa1.Key != serial.Key {
				t.Fatalf("lifted 1D factor key %s != serial key %s", fa1.Key, serial.Key)
			}
			pl2, err := an.Plan2D("rect2d", p, strategy.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fa2, err := pl2.FactorizeParallel(a, k)
			if err != nil {
				t.Fatal(err)
			}
			bitEqual(t, fa2.Val, serial.Val, "2D engine "+k.String())
			if fa2.Key != serial.Key {
				t.Fatalf("2D factor key %s != serial key %s", fa2.Key, serial.Key)
			}
		}
	}
}

// The first parallel factorization of a column-granular 1D plan compiles
// the plan's own column graph; it must not build the 2D lift, whose packed
// owner triangle alone is 4·n(n+1)/2 bytes (26 MB here, and it was built
// twice).
func TestFirstFactorizeParallelAllocation(t *testing.T) {
	a := gen.Grid9(60, 60)
	an, err := NewAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := an.Plan("wrap", 2, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := pl.FactorizeParallel(a, Cholesky); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perNNZ := float64(after.TotalAlloc-before.TotalAlloc) / float64(an.F.NNZ())
	if perNNZ > 100 {
		t.Fatalf("first FactorizeParallel allocated %.0f bytes per factor nonzero (nnz(L) = %d), want <= 100", perNNZ, an.F.NNZ())
	}
	t.Logf("first FactorizeParallel: %.1f bytes per factor nonzero", perNNZ)
}

// TestColumnPlanCompileBytes: compiling a column plan, wrap at P = 2 on
// Grid9(60,60), allocates at most 6 bytes per nnz(L). The column graph
// reaches exec.Compile as a nil element map, so nothing per nonzero is
// built or read: the program is per task, and an element map alone would
// be 4 bytes per nnz(L).
func TestColumnPlanCompileBytes(t *testing.T) {
	an, err := NewAnalysis(gen.Grid9(60, 60))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := an.Plan("wrap", 2, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pg, err := pl.program()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perNNZ := float64(after.TotalAlloc-before.TotalAlloc) / float64(an.F.NNZ())
	if pg.Tasks() <= an.F.N || perNNZ > 6 {
		t.Fatalf("compiling %d tasks for %d columns allocated %.2f bytes per nnz(L) = %d; want a split column and <= 6", pg.Tasks(), an.F.N, perNNZ, an.F.NNZ())
	}
	t.Logf("%d tasks, %.2f bytes per nnz(L)", pg.Tasks(), perNNZ)
}

// BenchmarkCompileColumnGraph times compiling a column plan as the
// pipeline does, wrap at P = 2 on Grid9(120,120), the refactor workload's
// plan.
func BenchmarkCompileColumnGraph(b *testing.B) {
	an, err := NewAnalysis(gen.Grid9(120, 120))
	if err != nil {
		b.Fatal(err)
	}
	pl, err := an.Plan("wrap", 2, strategy.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := pl.compile(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBlockPlanBitIdentity: block-granular plans run on the compiled
// engine like every other plan, so for every suite matrix, block strategy,
// processor count (through P > n) and kernel the parallel factor is the
// serial one bit for bit and shares its key. Under -race this is the
// data-race exercise of multi-column tasks.
func TestBlockPlanBitIdentity(t *testing.T) {
	for _, tm := range gen.Suite() {
		a := tm.Build()
		an, err := NewAnalysis(a)
		if err != nil {
			t.Fatal(err)
		}
		serial := map[Kernel]*Factor{}
		for _, name := range []string{"block", "blockgreedy", "refine"} {
			for _, p := range []int{1, 2, 8, 64, an.F.N + 1} {
				pl, err := an.Plan(name, p, strategy.Options{})
				if err != nil {
					t.Fatalf("%s %s P=%d: %v", tm.Name, name, p, err)
				}
				if pl.S1.UnitProc == nil {
					t.Fatalf("%s plan is not block-granular", name)
				}
				for _, k := range []Kernel{Cholesky, LDL} {
					if serial[k] == nil {
						if serial[k], err = pl.Factorize(a, k); err != nil {
							t.Fatal(err)
						}
					}
					par, err := pl.FactorizeParallel(a, k)
					if err != nil {
						t.Fatalf("%s %s P=%d %s: %v", tm.Name, name, p, k, err)
					}
					what := tm.Name + " " + name + " " + k.String()
					bitEqual(t, par.Val, serial[k].Val, what)
					if par.F != an.F || par.Key != serial[k].Key {
						t.Fatalf("%s P=%d: parallel factor key %s, serial %s", what, p, par.Key, serial[k].Key)
					}
				}
			}
		}
	}
}

// TestSolveProgramBitIdentity: SolveParallel is Solve bit for bit, for both
// kernels, on every plan kind — column 1D, block, a relaxed block plan
// factored in parallel over its padded structure, 2D — at every P through
// P > n, and twice running. Factor values do not depend on P, so each
// (kind, kernel) factors once and the P sweep re-plans around the values.
// Under -race this is the data-race exercise of the compiled sweeps.
func TestSolveProgramBitIdentity(t *testing.T) {
	type fixture struct {
		name string
		a    *sparse.Matrix
	}
	fixtures := []fixture{{"GRID9-60", gen.Grid9(60, 60)}}
	for _, tm := range gen.Suite() {
		fixtures = append(fixtures, fixture{tm.Name, tm.Build()})
	}
	relaxed := strategy.Options{Part: core.Options{RelaxZeros: 0.3}}
	kinds := []struct {
		name     string
		plan     func(an *Analysis, p int) (*Plan, error)
		parallel bool
	}{
		{"wrap", func(an *Analysis, p int) (*Plan, error) { return an.Plan("wrap", p, strategy.Options{}) }, false},
		{"block", func(an *Analysis, p int) (*Plan, error) { return an.Plan("block", p, strategy.Options{}) }, true},
		{"block relaxed", func(an *Analysis, p int) (*Plan, error) { return an.Plan("block", p, relaxed) }, true},
		{"rect2dcyclic", func(an *Analysis, p int) (*Plan, error) { return an.Plan2D("rect2dcyclic", p, strategy.Options{}) }, true},
	}
	for _, fx := range fixtures {
		an, err := NewAnalysis(fx.a)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, an.F.N)
		for i := range b {
			b[i] = float64((i*7)%13) - 6 + 1/float64(i+3)
		}
		for _, kind := range kinds {
			for _, k := range []Kernel{Cholesky, LDL} {
				var held *Factor
				for _, p := range []int{4, 1, 2, 3, 16, 64, an.F.N + 1} {
					what := fmt.Sprintf("%s %s %s P=%d", fx.name, kind.name, k, p)
					pl, err := kind.plan(an, p)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if held == nil {
						if held, err = pl.factor(fx.a, k, kind.parallel, artifact.Key{}); err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						if padded := kind.name == "block relaxed"; padded != (held.F != an.F) {
							t.Fatalf("%s: padded structure = %v", what, !padded)
						}
					}
					fa := &Factor{Plan: pl, Kernel: k, F: held.F, Val: held.Val}
					want, err := fa.Solve(b)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					for run := 0; run < 2; run++ {
						got, err := fa.SolveParallel(b)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						if !slices.EqualFunc(got, want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
							t.Fatalf("%s run %d: SolveParallel is not Solve bit for bit", what, run)
						}
					}
				}
			}
		}
	}
}

// TestSolveParallelRejectsForeignStructure: a Factor over a structure that
// is neither of its plan's is an error, not a program compiled into the
// shared plan.
func TestSolveParallelRejectsForeignStructure(t *testing.T) {
	a := gen.Grid9(6, 6)
	an, err := NewAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := an.Plan("wrap", 2, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fa, err := pl.Factorize(a, Cholesky)
	if err != nil {
		t.Fatal(err)
	}
	fa.F = &symbolic.Factor{N: an.F.N, ColPtr: an.F.ColPtr, RowInd: an.F.RowInd, Parent: an.F.Parent}
	if _, err := fa.SolveParallel(make([]float64, an.F.N)); err == nil || !strings.Contains(err.Error(), "not one of its plan's") {
		t.Fatalf("err = %v", err)
	}
}

// TestFactorRelaxedKeyIncludesPlan: the parallel factor of a relaxed block
// plan lives on the plan's zero-padded structure — bitwise the serial
// kernel over that structure — so it is the one factor that never shares
// a key with the serial one; it solves the original system on either
// sweep.
func TestFactorRelaxedKeyIncludesPlan(t *testing.T) {
	a := gen.Lap30()
	an, err := NewAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	opts := strategy.Options{Part: core.Options{RelaxZeros: 0.3}}
	pl, err := an.Plan("block", 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	padded := an.sys.Partition(opts.Part).F
	if padded.NNZ() <= an.F.NNZ() {
		t.Fatal("the relaxed partition pads nothing")
	}
	pm, err := an.PermutedWithValues(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, an.F.N)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	for _, k := range []Kernel{Cholesky, LDL} {
		par, err := pl.FactorizeParallel(a, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := k.Factorize(pm, padded)
		if err != nil {
			t.Fatal(err)
		}
		if par.F != padded {
			t.Fatalf("%s: relaxed parallel factor is not over the plan's structure", k)
		}
		bitEqual(t, par.Val, want, "relaxed block "+k.String())
		if par.Key == pl.FactorKey(k, a, false) {
			t.Fatalf("%s: relaxed parallel factor shares the serial key", k)
		}
		for name, solve := range map[string]func([]float64) ([]float64, error){"Solve": par.Solve, "SolveParallel": par.SolveParallel} {
			x, err := solve(b)
			if err != nil {
				t.Fatal(err)
			}
			if r := numeric.ResidualNorm(a, x, b); r > 1e-10 {
				t.Fatalf("relaxed block %s %s residual %g", k, name, r)
			}
		}
	}
}

// TestSolveBatchBitIdentical pins SolveBatch against one-at-a-time Solve,
// bit for bit: both kernels (LDLᵀ on an indefinite matrix), the serial
// factor and a relaxed block plan's parallel one over its zero-padded
// structure, batch sizes on both sides of the 8-rhs group, at GOMAXPROCS 1
// and 2.
func TestSolveBatchBitIdentical(t *testing.T) {
	spd := gen.Grid9(12, 12)
	indef := &sparse.Matrix{N: spd.N, ColPtr: spd.ColPtr, RowInd: spd.RowInd, Val: slices.Clone(spd.Val)}
	for j := 0; j < indef.N; j += 3 {
		indef.Val[indef.ColPtr[j]] = -indef.Val[indef.ColPtr[j]]
	}
	an, err := NewAnalysis(spd)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := an.Plan("contiguous", 4, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := an.Plan("block", 4, strategy.Options{Part: core.Options{RelaxZeros: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	var fas []*Factor
	for _, c := range []struct {
		k Kernel
		a *sparse.Matrix
	}{{Cholesky, spd}, {LDL, indef}} {
		fa, err := serial.Factorize(c.a, c.k)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := relaxed.FactorizeParallel(c.a, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if pa.F.NNZ() <= an.F.NNZ() {
			t.Fatalf("%s: the relaxed block factor pads nothing", c.k)
		}
		fas = append(fas, fa, pa)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, m := range []int{0, 1, 7, 8, 9, 16, 17, 64} {
			bs := make([][]float64, m)
			for r := range bs {
				bs[r] = make([]float64, an.F.N)
				for i := range bs[r] {
					bs[r][i] = float64((i*(r+3))%13) - 6 + 1/float64(i+r+2)
				}
			}
			for f, fa := range fas {
				what := fmt.Sprintf("%s factor %d, %d rhs, GOMAXPROCS %d", fa.Kernel, f, m, procs)
				xs, err := fa.SolveBatch(bs)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if len(xs) != m {
					t.Fatalf("%s: %d solutions", what, len(xs))
				}
				for r, b := range bs {
					want, err := fa.Solve(b)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if math.Float64bits(xs[r][i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: rhs %d x[%d] = %v, Solve %v", what, r, i, xs[r][i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestCacheServesIdenticalArtifacts is the cache-correctness pin: a
// Factor reached through cache-hit Analysis and Plan artifacts is bitwise
// identical to one built cold, and repeat requests do zero symbolic,
// mapping or factorization work (all counters, no rebuilds).
func TestCacheServesIdenticalArtifacts(t *testing.T) {
	a := gen.Lap30()
	cold, err := NewAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	coldPl, err := cold.Plan("wrap", 4, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldFa, err := coldPl.Factorize(a, Cholesky)
	if err != nil {
		t.Fatal(err)
	}

	c := NewCache(0)
	// First pass: three misses.
	an, err := c.Analysis(a)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := c.Plan(an, "wrap", 4, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fa, err := c.Factor(pl, a, Cholesky)
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, fa.Val, coldFa.Val, "cached-path factor vs cold factor")
	st := c.Stats()
	if st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("cold pass stats %+v, want 3 misses 0 hits", st)
	}

	// Second pass with a *different* matrix object of the same pattern
	// and values: all hits, same artifact pointers.
	a2 := gen.Lap30()
	an2, err := c.Analysis(a2)
	if err != nil {
		t.Fatal(err)
	}
	pl2, err := c.Plan(an2, "wrap", 4, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fa2, err := c.Factor(pl2, a2, Cholesky)
	if err != nil {
		t.Fatal(err)
	}
	if an2 != an || pl2 != pl || fa2 != fa {
		t.Fatal("repeat requests rebuilt artifacts instead of hitting the cache")
	}
	st = c.Stats()
	if st.Misses != 3 || st.Hits != 3 {
		t.Fatalf("warm pass stats %+v, want 3 misses 3 hits", st)
	}

	// Different values, same pattern: analysis and plan hit, factor
	// misses (values are part of the factor key).
	a3 := gen.Lap30()
	a3.Val[0] *= 2
	an3, err := c.Analysis(a3)
	if err != nil {
		t.Fatal(err)
	}
	if an3 != an {
		t.Fatal("same pattern with new values must reuse the analysis")
	}
	pl3, err := c.Plan(an3, "wrap", 4, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fa3, err := c.Factor(pl3, a3, Cholesky)
	if err != nil {
		t.Fatal(err)
	}
	if fa3 == fa {
		t.Fatal("different values must build a different factor")
	}
}

// TestKeyDeterminism is the hash-determinism pin: equal inputs collide,
// different inputs (pattern, permutation, strategy, P, options, kernel,
// values, engine) do not.
func TestKeyDeterminism(t *testing.T) {
	a := gen.Grid9(10, 10)
	b := gen.Grid9(10, 10)
	if AnalysisKey(a) != AnalysisKey(b) {
		t.Fatal("same pattern produced different analysis keys")
	}
	perm := order.MMD(a)
	pm, err := a.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	if AnalysisKey(a) == AnalysisKey(pm) {
		t.Fatal("permuted pattern shares the analysis key")
	}
	if AnalysisKey(a) == AnalysisKey(gen.Grid9(10, 11)) {
		t.Fatal("different pattern shares the analysis key")
	}
	an, err := NewAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	anOrd, err := NewAnalysisOrdered(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	if an.Key == anOrd.Key {
		t.Fatal("explicit ordering shares the MMD analysis key")
	}
	base := an.PlanKey("wrap", 4, strategy.Options{}, false)
	if base != an.PlanKey("wrap", 4, strategy.Options{}, false) {
		t.Fatal("plan key not deterministic")
	}
	variants := []struct {
		name string
		key  interface{ String() string }
	}{
		{"strategy", an.PlanKey("block", 4, strategy.Options{}, false)},
		{"p", an.PlanKey("wrap", 8, strategy.Options{}, false)},
		{"dim", an.PlanKey("wrap", 4, strategy.Options{}, true)},
		{"opts", an.PlanKey("wrap", 4, strategy.Options{BlockSize: 8}, false)},
		{"comm gamma", an.PlanKey("wrap", 4, strategy.Options{Comm: exec.CommModel{Gamma: 1}}, false)},
		{"analysis", anOrd.PlanKey("wrap", 4, strategy.Options{}, false)},
	}
	for _, v := range variants {
		if v.key == base {
			t.Fatalf("plan key ignores %s", v.name)
		}
	}
	// Telemetry must not influence the key; partition normalization must.
	withSearch := strategy.Options{}
	withSearch.Search = nil
	if an.PlanKey("wrap", 4, withSearch, false) != base {
		t.Fatal("plan key unstable under zero options")
	}
	defaulted := an.PlanKey("block", 4, strategy.Options{}, false)
	normalized := an.PlanKey("block", 4, strategy.Options{Part: core.Options{Grain: 4, MinClusterWidth: 4}}, false)
	if defaulted != normalized {
		t.Fatal("plan key must normalize partition options")
	}

	pl, err := an.Plan("wrap", 4, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fk := pl.FactorKey(Cholesky, a, false)
	if fk != pl.FactorKey(Cholesky, a, false) {
		t.Fatal("factor key not deterministic")
	}
	if fk != pl.FactorKey(Cholesky, a, true) {
		t.Fatal("chain-parallel factor must share the serial key")
	}
	if fk == pl.FactorKey(LDL, a, false) {
		t.Fatal("factor key ignores the kernel")
	}
	a4 := gen.Grid9(10, 10)
	a4.Val[3] += 0.5
	if fk == pl.FactorKey(Cholesky, a4, false) {
		t.Fatal("factor key ignores the values")
	}
}

// TestCacheConcurrent hammers one cache from many goroutines (run under
// -race): every solve must agree bitwise, and the store must end with
// exactly one build per distinct artifact.
func TestCacheConcurrent(t *testing.T) {
	a := gen.Grid9(14, 14)
	c := NewCache(64)
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	want, err := c.Solve(a, "wrap", 4, strategy.Options{}, Cholesky, b)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				x, err := c.Solve(a, "wrap", 4, strategy.Options{}, Cholesky, b)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range want {
					if x[j] != want[j] {
						t.Errorf("concurrent solve diverged at %d", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Misses != 3 {
		t.Fatalf("concurrent solves rebuilt artifacts: %+v", st)
	}
}

// TestPlanKeyDistinguishesRelaxFractions: RelaxZeros is a fraction in
// (0, 1), and each value partitions a differently padded factor; the key
// must tell them apart, or the cache hands a plan built over one factor to
// a caller who asked for another.
func TestPlanKeyDistinguishesRelaxFractions(t *testing.T) {
	a, _, err := gen.ByName("BUS1138") // padded differently at each fraction
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	an, err := c.Analysis(a)
	if err != nil {
		t.Fatal(err)
	}
	fracs := []float64{0, 0.05, 0.1}
	seenKey := make(map[string]float64)
	seenLen := make(map[int]float64)
	for _, z := range fracs {
		opts := strategy.Options{Part: core.Options{RelaxZeros: z}}
		key := an.PlanKey("block", 4, opts, false).String()
		if prev, dup := seenKey[key]; dup {
			t.Fatalf("RelaxZeros %g and %g share a plan key", prev, z)
		}
		seenKey[key] = z
		pl, err := c.Plan(an, "block", 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := an.Sys().Partition(opts.Part).F.NNZ()
		if got := len(elemOwners(pl.S1)); got != want {
			t.Fatalf("RelaxZeros %g: cached plan covers %d elements, its partition's factor has %d", z, got, want)
		}
		if prev, dup := seenLen[want]; dup {
			t.Fatalf("RelaxZeros %g and %g pad BUS1138 to the same %d elements; the test tells nothing apart", prev, z, want)
		}
		seenLen[want] = z
	}
}

// elemOwners is the owner of every element of sc.F, read column by column.
func elemOwners(sc *sched.Schedule) []int32 {
	var out []int32
	for j := 0; j < sc.F.N; j++ {
		out = sc.AppendOwners(out, j)
	}
	return out
}

// TestCachePlanHonorsCommGamma: refine's commspan objective prices every
// task with exec.CommModel.Cost, fixed overhead Gamma included, so two
// requests that differ only in Gamma map different schedules; the cache
// must hand each its own plan, not the first one's.
func TestCachePlanHonorsCommGamma(t *testing.T) {
	a := gen.Lap30()
	c := NewCache(0)
	an, err := c.Analysis(a)
	if err != nil {
		t.Fatal(err)
	}
	optsOf := func(gamma float64) strategy.Options {
		return strategy.Options{Objective: "commspan", Comm: exec.CommModel{Alpha: 2, Beta: 10, Gamma: gamma}}
	}
	if _, err := c.Plan(an, "refine", 16, optsOf(0)); err != nil {
		t.Fatal(err)
	}
	got, err := c.Plan(an, "refine", 16, optsOf(1000))
	if err != nil {
		t.Fatal(err)
	}
	zero, err := an.Plan("refine", 16, optsOf(0))
	if err != nil {
		t.Fatal(err)
	}
	want, err := an.Plan("refine", 16, optsOf(1000))
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(elemOwners(zero.S1), elemOwners(want.S1)) {
		t.Fatal("Gamma 0 and 1000 map the same schedule on LAP30; the test tells nothing apart")
	}
	if !slices.Equal(elemOwners(got.S1), elemOwners(want.S1)) {
		t.Fatalf("the cache served Gamma 1000 a plan with traffic %d; its own plan has %d",
			got.TrafficTotal(), want.TrafficTotal())
	}
}

// TestConcurrentPlansShareColumnViews: the per-column work vector (and,
// behind it, contigtotal's fetch references), the rectilinear cuts of each
// P and each partition's read map are built once by whichever plan asks
// first, then shared read-only. Concurrent plans of the strategies that
// read them — the 1D rectilinear mapper and the three rect2d mappers share
// the cuts, the block-granular plans of one grain the read map — run under
// -race, must all see the one copy of the cuts and read maps, unmodified,
// and produce the plans (and fetch attributions) a lone caller gets. The
// work vector's one copy is strategy's TestSysConcurrentMappingShared.
func TestConcurrentPlansShareColumnViews(t *testing.T) {
	an, err := NewAnalysis(gen.Grid9(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	lone, err := NewAnalysis(gen.Grid9(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	g25 := core.Options{Grain: 25}
	cells := []struct {
		name string
		opts strategy.Options
		dim2 bool
	}{
		{"contiguous", strategy.Options{}, false},
		{"contigtotal", strategy.Options{}, false},
		{"contigtotal", strategy.Options{Slack: 0.25, Beta2: 2}, false},
		{"subcube", strategy.Options{}, false},
		{"refine", strategy.Options{Base: "contiguous"}, false},
		{"refine", strategy.Options{Base: "wrap", Objective: "traffic"}, false},
		{"rectilinear", strategy.Options{}, false},
		{"rect2d", strategy.Options{}, true},
		{"rect2dlpt", strategy.Options{}, true},
		{"rect2dcyclic", strategy.Options{}, true},
		{"block", strategy.Options{}, false},
		{"block", strategy.Options{Part: g25}, false},
		{"blockgreedy", strategy.Options{}, false},
		{"blockgreedy", strategy.Options{Part: g25}, false},
		{"refine", strategy.Options{Base: "block"}, false},
		{"refine", strategy.Options{Base: "block", Part: g25}, false},
	}
	plan := func(an *Analysis, name string, opts strategy.Options, dim2 bool) (*Plan, []int32, error) {
		if dim2 {
			pl, err := an.Plan2D(name, 4, opts)
			if err != nil {
				return nil, nil, err
			}
			return pl, pl.S2.Schedule().ElemProc, nil
		}
		pl, err := an.Plan(name, 4, opts)
		if err != nil {
			return nil, nil, err
		}
		return pl, elemOwners(pl.S1), nil
	}
	var wg sync.WaitGroup
	cuts := make([]*int, 12)
	maps := make([][2]*core.ReadMap, len(cuts))
	for g := range cuts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range cells {
				c := cells[(g+i)%len(cells)]
				gotPl, got, err := plan(an, c.name, c.opts, c.dim2)
				if err != nil {
					t.Errorf("%s: %v", c.name, err)
					return
				}
				wantPl, want, err := plan(lone, c.name, c.opts, c.dim2)
				if err != nil {
					t.Errorf("%s: %v", c.name, err)
					return
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s %+v: concurrent plan differs from a lone one", c.name, c.opts)
				}
				if !slices.Equal(gotPl.Fetch.Vol, wantPl.Fetch.Vol) || !slices.Equal(gotPl.Fetch.Msgs, wantPl.Fetch.Msgs) {
					t.Errorf("%s %+v: concurrent fetch attribution differs from a lone one", c.name, c.opts)
				}
			}
			cuts[g] = &an.Sys().RectilinearCuts(4)[0]
			maps[g] = [2]*core.ReadMap{an.Sys().Partition(core.Options{}).ReadMap(), an.Sys().Partition(g25).ReadMap()}
		}(g)
	}
	wg.Wait()
	for g := range cuts {
		if cuts[g] != cuts[0] || maps[g] != maps[0] {
			t.Fatalf("goroutine %d saw its own rectilinear cuts or read map", g)
		}
	}
	if got, want := an.Sys().RectilinearCuts(4), strategy.NewSys(an.F, an.Ops, nil).RectilinearCuts(4); !slices.Equal(got, want) {
		t.Fatal("the shared rectilinear cuts were written to")
	}
}

// A matrix that is not positive definite fails as a
// *numeric.NotPositiveDefiniteError naming the serial kernel's column on
// every path: the serial factor, the compiled engine on whole columns
// (wrap), unit blocks and 2D tile segments at P = 1 and 2, and the
// cache's parallel factor.
func TestParallelNotPositiveDefiniteError(t *testing.T) {
	m := gen.Grid9(12, 12)
	m.Val[m.ColPtr[m.N/2]] = -1
	an, err := NewAnalysis(m)
	if err != nil {
		t.Fatal(err)
	}
	var want *numeric.NotPositiveDefiniteError
	pl, err := an.Plan("wrap", 1, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Factorize(m, Cholesky); !errors.As(err, &want) {
		t.Fatalf("serial: err = %v (%T), want *numeric.NotPositiveDefiniteError", err, err)
	}
	cache := NewCache(8)
	for _, p := range []int{1, 2} {
		for _, c := range []struct {
			name string
			plan func(string, int, strategy.Options) (*Plan, error)
		}{{"wrap", an.Plan}, {"block", an.Plan}, {"rect2dcyclic", an.Plan2D}} {
			pl, err := c.plan(c.name, p, strategy.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, err = pl.FactorizeParallel(m, Cholesky)
			_, cerr := cache.FactorParallel(pl, m, Cholesky)
			for _, err := range []error{err, cerr} {
				var npd *numeric.NotPositiveDefiniteError
				if !errors.As(err, &npd) || npd.Column != want.Column || !strings.HasPrefix(err.Error(), "exec: ") {
					t.Fatalf("%s P=%d: err = %v (%T), want an exec error wrapping %v", c.name, p, err, err, want)
				}
			}
		}
	}
}

// An analysis whose factor has 2³¹ or more nonzeros is an error, found
// by symbolic's counting pass before anything of that size is allocated:
// every position is held as an int32 (the row index, the compiled
// programs' steps and task maps) and would wrap silently. The arrow
// pattern eliminated hub-first fills completely: at n = 65 537 nnz(L) is
// n(n+1)/2 = 2 147 581 953, just past the limit, from 2n − 1 entries of A.
// The column counts take O(nnz(A)) time, so the test runs in milliseconds.
func TestAnalysisRejectsInt32Overflow(t *testing.T) {
	const n = 65537
	a := &sparse.Matrix{N: n, ColPtr: make([]int, n+1), RowInd: make([]int32, 0, 2*n-1)}
	for i := 0; i < n; i++ {
		a.RowInd = append(a.RowInd, int32(i)) // column 0, the hub: every row
	}
	for j := 1; j <= n; j++ {
		a.ColPtr[j] = len(a.RowInd)
		if j < n {
			a.RowInd = append(a.RowInd, int32(j))
		}
	}
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	an, err := NewAnalysisOrdered(a, identity)
	runtime.ReadMemStats(&after)
	if err == nil || an != nil || !strings.Contains(err.Error(), "2147581953 nonzeros") {
		t.Fatalf("analysis %v, error %v; want an error naming 2147581953 nonzeros", an != nil, err)
	}
	// Nothing sized by nnz(L): the pattern stage allocates O(n) words.
	if total := after.TotalAlloc - before.TotalAlloc; total > 1<<24 {
		t.Errorf("the rejected analysis allocated %d bytes", total)
	}
	t.Log(err)
}
