package pipeline

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/strategy"
)

// TestFactorRejectsForeignLengths: a value count or column-pointer count
// other than the analysis' is an error naming both lengths, on every way
// to a factor — not a factor that silently ignores a value, an index
// panic, or a panic reported by the store.
func TestFactorRejectsForeignLengths(t *testing.T) {
	a := gen.Grid9(6, 6)
	an, err := NewAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := an.Plan("wrap", 2, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nnz, ptrs := a.NNZ(), len(a.ColPtr)
	cases := []struct {
		name string
		m    *sparse.Matrix
		want string
	}{
		{"one extra value", &sparse.Matrix{N: a.N, ColPtr: a.ColPtr, RowInd: a.RowInd, Val: append(append([]float64(nil), a.Val...), 1)},
			fmt.Sprintf("%d values, the analysis pattern %d entries", nnz+1, nnz)},
		{"one value short", &sparse.Matrix{N: a.N, ColPtr: a.ColPtr, RowInd: a.RowInd, Val: a.Val[:nnz-1]},
			fmt.Sprintf("%d values, the analysis pattern %d entries", nnz-1, nnz)},
		{"short ColPtr", &sparse.Matrix{N: a.N, ColPtr: a.ColPtr[:a.N], RowInd: a.RowInd, Val: a.Val},
			fmt.Sprintf("%d column pointers, the analysis %d", ptrs-1, ptrs)},
	}
	c := NewCache(0)
	paths := []struct {
		name string
		run  func(m *sparse.Matrix) (*Factor, error)
	}{
		{"Plan.Factorize", func(m *sparse.Matrix) (*Factor, error) { return pl.Factorize(m, Cholesky) }},
		{"Plan.FactorizeParallel", func(m *sparse.Matrix) (*Factor, error) { return pl.FactorizeParallel(m, Cholesky) }},
		{"Cache.Factor", func(m *sparse.Matrix) (*Factor, error) { return c.Factor(pl, m, Cholesky) }},
	}
	for _, tc := range cases {
		for _, p := range paths {
			fa, err := p.run(tc.m)
			if fa != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s through %s: factor %v, err %v; want an error naming %q", tc.name, p.name, fa != nil, err, tc.want)
			}
		}
	}
	// A failed build is not cached: asking again misses again.
	for _, tc := range cases {
		c.Factor(pl, tc.m, Cholesky)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != int64(2*len(cases)) {
		t.Fatalf("cache counters %+v after failed builds asked twice; want %d misses, no hit", st, 2*len(cases))
	}
}

// TestInvalidMatrixValidatedOnMiss: Cache.Analysis validates on a miss
// only, so every invalid matrix must miss — on an empty cache and on one
// holding its valid twin's analysis, plan and factor — and come back with
// exactly a.Validate()'s error. Nothing is served and nothing is stored.
func TestInvalidMatrixValidatedOnMiss(t *testing.T) {
	twin := gen.Grid9(6, 6)
	mutate := func(f func(m *sparse.Matrix)) *sparse.Matrix {
		m := twin.Clone()
		f(m)
		return m
	}
	bad := []struct {
		name string
		m    *sparse.Matrix
	}{
		{"negative N", mutate(func(m *sparse.Matrix) { m.N = -1 })},
		{"short ColPtr", mutate(func(m *sparse.Matrix) { m.ColPtr = m.ColPtr[:m.N] })},
		{"ColPtr[0] != 0", mutate(func(m *sparse.Matrix) { m.ColPtr[0] = 1 })},
		{"decreasing ColPtr", mutate(func(m *sparse.Matrix) { m.ColPtr[2], m.ColPtr[3] = m.ColPtr[3], m.ColPtr[2] })},
		{"missing diagonal", mutate(func(m *sparse.Matrix) { m.RowInd[m.ColPtr[1]] = 2 })},
		{"rows not increasing", mutate(func(m *sparse.Matrix) { m.RowInd[1], m.RowInd[2] = m.RowInd[2], m.RowInd[1] })},
		{"row out of range", mutate(func(m *sparse.Matrix) { m.RowInd[m.ColPtr[1]-1] = int32(m.N) })},
		{"wrong len(Val)", mutate(func(m *sparse.Matrix) { m.Val = m.Val[1:] })},
	}
	b := make([]float64, twin.N)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	warm := NewCache(0)
	if _, err := warm.Solve(twin, "wrap", 2, strategy.Options{}, Cholesky, b); err != nil {
		t.Fatal(err)
	}
	for _, tc := range bad {
		want := tc.m.Validate()
		if want == nil {
			t.Fatalf("%s: the case is valid", tc.name)
		}
		for _, c := range []*Cache{NewCache(0), warm} {
			held := c.Stats()
			an, err := c.Analysis(tc.m)
			if an != nil || err == nil || err.Error() != want.Error() {
				t.Fatalf("%s: Cache.Analysis served %v, err %v; want %v", tc.name, an != nil, err, want)
			}
			x, err := c.Solve(tc.m, "wrap", 2, strategy.Options{}, Cholesky, b)
			if x != nil || err == nil || err.Error() != want.Error() {
				t.Fatalf("%s: Cache.Solve served %v, err %v; want %v", tc.name, x != nil, err, want)
			}
			if st := c.Stats(); st.Hits != held.Hits {
				t.Fatalf("%s: store counters %+v -> %+v; an invalid matrix was served from the store", tc.name, held, st)
			}
		}
	}
}

// TestWarmSolveAllocations pins what a warm Cache.Solve allocates: a
// Hasher and its sha256 state per digest (analysis and pattern, plan,
// factor and values) and the solve's two vectors. Strings, keys and sums
// are staged, not converted.
func TestWarmSolveAllocations(t *testing.T) {
	a := gen.Lap30()
	c := NewCache(0)
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	solve := func() {
		if _, err := c.Solve(a, "wrap", 2, strategy.Options{}, Cholesky, b); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	got := testing.AllocsPerRun(20, solve)
	if got > 12 {
		t.Fatalf("a warm Cache.Solve allocated %.0f times, want <= 12", got)
	}
	t.Logf("warm Cache.Solve: %.0f allocations", got)
}

// TestCachedFactorCarriesItsPlan: FactorKey leaves the plan out where the
// factors are bit-identical, so two plans of one pattern share the stored
// values; the Factor the cache returns must still carry the plan it was
// asked for, whichever plan stored it, serial or parallel, and its
// parallel solve must be its serial one bit for bit.
func TestCachedFactorCarriesItsPlan(t *testing.T) {
	a := gen.Grid9(12, 12)
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	for _, order := range [][2]string{{"wrap", "block"}, {"block", "wrap"}} {
		for _, parallel := range []bool{false, true} {
			c := NewCache(0)
			an, err := c.Analysis(a)
			if err != nil {
				t.Fatal(err)
			}
			plans := map[string]*Plan{}
			for name, p := range map[string]int{"wrap": 2, "block": 16} {
				if plans[name], err = c.Plan(an, name, p, strategy.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			get := c.Factor
			if parallel {
				get = c.FactorParallel
			}
			for _, name := range order {
				pl := plans[name]
				fa, err := get(pl, a, Cholesky)
				if err != nil {
					t.Fatal(err)
				}
				if fa.Plan != pl {
					t.Errorf("%v parallel=%v: the %s factor carries the %s P=%d plan", order, parallel, name, fa.Plan.Strategy, fa.Plan.P)
				}
				x, err := fa.Solve(b)
				if err != nil {
					t.Fatal(err)
				}
				y, err := fa.SolveParallel(b)
				if err != nil {
					t.Fatal(err)
				}
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
						t.Fatalf("%v parallel=%v %s: SolveParallel differs from Solve at %d", order, parallel, name, i)
					}
				}
			}
		}
	}
}
