package order

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

func mustEqualPerm(t *testing.T, name string, m *sparse.Matrix) {
	t.Helper()
	got, want := MMD(m), refMMD(m)
	if !slices.Equal(got, want) {
		for k := range want {
			if k >= len(got) || got[k] != want[k] {
				t.Fatalf("%s (n=%d): MMD departs from the reference at position %d", name, m.N, k)
			}
		}
		t.Fatalf("%s: MMD returned %d indices, the reference %d", name, len(got), len(want))
	}
}

// coldPatterns are the eight patterns of the benchmark's cold workload.
func coldPatterns(seed int64) map[string]*sparse.Matrix {
	out := map[string]*sparse.Matrix{
		"GRID9": gen.Grid9(60, 60),
		"PBUS":  gen.PowerBus(3000, 900, seed),
		"CANN":  gen.Cannes(1500, 8000, seed),
	}
	for _, tm := range gen.Suite() {
		out[tm.Name] = tm.Build()
	}
	return out
}

func TestMMDMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for name, m := range coldPatterns(seed) {
			mustEqualPerm(t, fmt.Sprintf("%s/seed%d", name, seed), m)
		}
	}
	if !testing.Short() {
		mustEqualPerm(t, "Grid9(120,120)", gen.Grid9(120, 120))
	}
}

// shapedPattern draws one of the shapes supervariables, mass elimination
// and absorption each need: sparse and dense random graphs, disconnected
// unions, stars, paths, cliques with pendants, and n in {0, 1}.
func shapedPattern(rng *rand.Rand, k int) *sparse.Matrix {
	n := 2 + rng.Intn(299)
	var edges [][2]int
	switch k % 8 {
	case 0:
		return gen.Random(n, 0.5+3*rng.Float64(), rng.Int63())
	case 1: // dense
		n = 2 + rng.Intn(40)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				if rng.Intn(10) < 7 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
	case 2: // disconnected: edges stay inside blocks, some nodes isolated
		for e := 0; e < 2*n; e++ {
			b := rng.Intn(n/8+1) * 8
			i, j := b+rng.Intn(8), b+rng.Intn(8)
			if i < n && j < n {
				edges = append(edges, [2]int{i, j})
			}
		}
	case 3: // stars
		for i := 0; i < n; i++ {
			if c := i / 20 * 20; c != i {
				edges = append(edges, [2]int{c, i})
			}
		}
	case 4: // path under a random relabelling
		p := rng.Perm(n)
		for i := 1; i < n; i++ {
			edges = append(edges, [2]int{p[i-1], p[i]})
		}
	case 5: // twins: many vertices share one neighbourhood
		hubs := 1 + rng.Intn(4)
		for i := hubs; i < n; i++ {
			for h := 0; h < hubs; h++ {
				if (i+h)%3 != 0 {
					edges = append(edges, [2]int{h, i})
				}
			}
		}
	case 6:
		return gen.Grid9(2+rng.Intn(12), 2+rng.Intn(12))
	default:
		n = k / 8 % 2 // n = 0 and n = 1
	}
	m, err := sparse.NewPattern(n, edges)
	if err != nil {
		panic(err)
	}
	return m
}

func TestMMDMatchesReferenceOnRandomPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for k := 0; k < 240; k++ {
		mustEqualPerm(t, fmt.Sprintf("pattern %d", k), shapedPattern(rng, k))
	}
}

// TestMMDPassInvariant walks the passes one by one. MMD has no retry for
// a pass that eliminates nothing and no final count check because neither
// can happen: a pass clears the flag of every active variable it flagged,
// so the minimum-degree bucket it starts from holds only eligible
// variables, and every variable is numbered exactly once.
func TestMMDPassInvariant(t *testing.T) {
	for name, m := range coldPatterns(1) {
		s := newMMD(m, 0)
		for pass := 0; len(s.order) < s.n; pass++ {
			for v := range s.flag {
				if s.flag[v] && s.state[v] == stActive {
					t.Fatalf("%s: active variable %d is flagged at the start of pass %d", name, v, pass)
				}
			}
			before := len(s.order)
			s.pass()
			if len(s.order) == before {
				t.Fatalf("%s: pass %d numbered nothing", name, pass)
			}
		}
		if len(s.order) != m.N || !IsPermutation(s.order) {
			t.Fatalf("%s: %d of %d indices numbered, permutation %v", name, len(s.order), m.N, IsPermutation(s.order))
		}
	}
}

// TestMMDStampWrap starts both stamp counters a few steps short of the
// limit, so every matrix crosses the reset of each at least once.
func TestMMDStampWrap(t *testing.T) {
	for name, m := range coldPatterns(2) {
		s := newMMD(m, stampLimit-7)
		for len(s.order) < s.n {
			s.pass()
		}
		if s.seen.cur > stampLimit/2 || s.seen2.cur > stampLimit/2 {
			t.Fatalf("%s: a stamp counter never wrapped (%d, %d)", name, s.seen.cur, s.seen2.cur)
		}
		if !slices.Equal(s.order, MMD(m)) {
			t.Errorf("%s: the ordering changes when the stamps wrap", name)
		}
	}
}

func TestMMDAllocations(t *testing.T) {
	for _, m := range []*sparse.Matrix{gen.Lap30(), gen.Grid9(60, 60)} {
		if got := testing.AllocsPerRun(5, func() { MMD(m) }); got > 50 {
			t.Errorf("n=%d: MMD allocates %.0f objects a call, want <= 50", m.N, got)
		}
	}
}

// fuzzPattern reads a symmetric pattern of dimension n <= 64 from fuzzer
// bytes: one byte of size, then one edge per pair of bytes.
func fuzzPattern(data []byte) *sparse.Matrix {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0]) % 65
	var edges [][2]int
	for data = data[1:]; len(data) >= 2 && n > 0; data = data[2:] {
		edges = append(edges, [2]int{int(data[0]) % n, int(data[1]) % n})
	}
	m, err := sparse.NewPattern(n, edges)
	if err != nil {
		panic(err)
	}
	return m
}

// densePermuted and denseFactor are the front end's products by brute
// force on a dense copy, the oracles of the layers whose own references
// sit in their packages' test files.
func densePermuted(m *sparse.Matrix, perm []int) (colPtr, rowInd []int, val []float64) {
	n := m.N
	inv := Inverse(perm)
	has := make([]bool, n*n)
	at := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for k, i := range m.Col(j) {
			r, c := max(inv[i], inv[j]), min(inv[i], inv[j])
			has[r*n+c], at[r*n+c] = true, m.ColVal(j)[k]
		}
	}
	colPtr = []int{0}
	for c := 0; c < n; c++ {
		for r := c; r < n; r++ {
			if has[r*n+c] {
				rowInd, val = append(rowInd, r), append(val, at[r*n+c])
			}
		}
		colPtr = append(colPtr, len(rowInd))
	}
	return colPtr, rowInd, val
}

func denseFactor(pm *sparse.Matrix) (colPtr, rowInd, parent []int) {
	n := pm.N
	has := make([]bool, n*n)
	for j := 0; j < n; j++ {
		for _, i := range pm.Col(j) {
			has[i*n+j] = true
		}
	}
	colPtr = []int{0}
	for c := 0; c < n; c++ {
		first := -1
		for r := c; r < n; r++ {
			if !has[r*n+c] {
				continue
			}
			rowInd = append(rowInd, r)
			switch {
			case r == c:
			case first < 0:
				first = r
			default:
				has[r*n+first] = true
			}
		}
		parent = append(parent, first)
		colPtr = append(colPtr, len(rowInd))
	}
	return colPtr, rowInd, parent
}

// FuzzMMDPerm holds the flat front end to the code it replaced on
// fuzzer-written patterns: MMD to refMMD's permutation, and Permute and
// symbolic.Analyze under that permutation to brute force.
func FuzzMMDPerm(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5})                   // path
	f.Add([]byte{9, 0, 1, 0, 2, 0, 3, 0, 4, 5, 6, 5, 7, 5, 8})       // two stars
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3}) // near-clique
	f.Add([]byte{64, 1, 9, 9, 17, 17, 25, 2, 10, 10, 18, 1, 2, 9, 10, 17, 18, 63, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzPattern(data)
		if m == nil {
			return
		}
		mustEqualPerm(t, "fuzz", m)
		m.Val = make([]float64, m.NNZ())
		for k := range m.Val {
			m.Val[k] = float64(k) + 0.5
		}
		perm := MMD(m)
		pm, err := m.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		colPtr, rowInd, val := densePermuted(m, perm)
		if !slices.Equal(pm.ColPtr, colPtr) || !slices.Equal(pm.RowInd, rowInd) || !slices.Equal(pm.Val, val) {
			t.Fatalf("Permute departs from the dense permutation (n=%d)", m.N)
		}
		fac := symbolic.Analyze(pm)
		colPtr, rowInd, parent := denseFactor(pm)
		if !slices.Equal(fac.ColPtr, colPtr) || !slices.Equal(fac.RowInd, rowInd) || !slices.Equal(fac.Parent, parent) {
			t.Fatalf("Analyze departs from dense elimination (n=%d)", m.N)
		}
	})
}

// BenchmarkMMDCold regenerates the ordering table of EXPERIMENTS.md
// (Order-1): the flat MMD and the reference on each cold pattern.
func BenchmarkMMDCold(b *testing.B) {
	pats := coldPatterns(1)
	names := make([]string, 0, len(pats))
	for name := range pats {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		for _, impl := range []struct {
			name string
			run  func(*sparse.Matrix) []int
		}{{"flat", MMD}, {"reference", refMMD}} {
			b.Run(name+"/"+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impl.run(pats[name])
				}
			})
		}
	}
}
