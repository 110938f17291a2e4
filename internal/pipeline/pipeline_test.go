package pipeline

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/order"
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
// PermuteValues bitwise equal to a structural Permute.
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
	pv, err := an.PermuteValues(a)
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, pv, pm.Val, "PermuteValues vs Permute")
	if an.Pattern.Val != nil || an.Permuted.Val != nil {
		t.Fatal("analysis retained numeric values; it must be pattern-only")
	}
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
		for _, p := range []int{1, 4, 16} {
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
			for _, p := range []int{1, 2, 8, 64, an.N() + 1} {
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
		b := make([]float64, an.N())
		for i := range b {
			b[i] = float64((i*7)%13) - 6 + 1/float64(i+3)
		}
		for _, kind := range kinds {
			for _, k := range []Kernel{Cholesky, LDL} {
				var held *Factor
				for _, p := range []int{4, 1, 2, 3, 16, 64, an.N() + 1} {
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
	if _, err := fa.SolveParallel(make([]float64, an.N())); err == nil || !strings.Contains(err.Error(), "not one of its plan's") {
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
	b := make([]float64, an.N())
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

// TestSolveBatchBitIdentical pins SolveBatch against one-at-a-time Solve.
func TestSolveBatchBitIdentical(t *testing.T) {
	a := gen.Grid9(12, 12)
	an, err := NewAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := an.Plan("contiguous", 4, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fa, err := pl.Factorize(a, Cholesky)
	if err != nil {
		t.Fatal(err)
	}
	bs := make([][]float64, 9)
	for r := range bs {
		bs[r] = make([]float64, an.N())
		for i := range bs[r] {
			bs[r][i] = float64((i*(r+3))%13) - 6
		}
	}
	xs, err := fa.SolveBatch(bs)
	if err != nil {
		t.Fatal(err)
	}
	for r := range bs {
		want, err := fa.Solve(bs[r])
		if err != nil {
			t.Fatal(err)
		}
		bitEqual(t, xs[r], want, "batch rhs")
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
	byKind := c.StatsByKind()
	for _, kind := range []string{"analysis", "plan", "factor"} {
		if byKind[kind].Hits != 1 || byKind[kind].Misses != 1 {
			t.Fatalf("kind %s stats %+v, want 1 hit 1 miss", kind, byKind[kind])
		}
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
		if got := len(pl.S1.ElemProc); got != want {
			t.Fatalf("RelaxZeros %g: cached plan covers %d elements, its partition's factor has %d", z, got, want)
		}
		if prev, dup := seenLen[want]; dup {
			t.Fatalf("RelaxZeros %g and %g pad BUS1138 to the same %d elements; the test tells nothing apart", prev, z, want)
		}
		seenLen[want] = z
	}
}

// TestConcurrentPlansShareColumnViews: the per-column work vector (and,
// behind it, contigtotal's fetch references) is built once per Analysis by
// whichever plan asks first, then shared read-only. Concurrent plans of
// the strategies that read it — run under -race — must all see the one
// copy, unmodified, and produce the plans a lone caller gets.
func TestConcurrentPlansShareColumnViews(t *testing.T) {
	an, err := NewAnalysis(gen.Grid9(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	lone, err := NewAnalysis(gen.Grid9(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	cells := []struct {
		name string
		opts strategy.Options
	}{
		{"contiguous", strategy.Options{}},
		{"contigtotal", strategy.Options{}},
		{"contigtotal", strategy.Options{Slack: 0.25, Beta2: 2}},
		{"subcube", strategy.Options{}},
		{"refine", strategy.Options{Base: "contiguous"}},
		{"refine", strategy.Options{Base: "wrap", Objective: "traffic"}},
	}
	var wg sync.WaitGroup
	views := make([]*int64, 12)
	for g := range views {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range cells {
				c := cells[(g+i)%len(cells)]
				pl, err := an.Plan(c.name, 4, c.opts)
				if err != nil {
					t.Errorf("%s: %v", c.name, err)
					return
				}
				want, err := lone.Plan(c.name, 4, c.opts)
				if err != nil {
					t.Errorf("%s: %v", c.name, err)
					return
				}
				if !slices.Equal(pl.S1.ElemProc, want.S1.ElemProc) {
					t.Errorf("%s %+v: concurrent plan differs from a lone one", c.name, c.opts)
				}
			}
			views[g] = &an.Sys().ColumnWork()[0]
		}(g)
	}
	wg.Wait()
	for g, v := range views {
		if v != views[0] {
			t.Fatalf("goroutine %d saw its own column work vector", g)
		}
	}
	if got, want := an.Sys().ColumnWork(), model.ColumnWork(an.F, an.Sys().ElemWork); !slices.Equal(got, want) {
		t.Fatal("the shared column work vector was written to")
	}
}
