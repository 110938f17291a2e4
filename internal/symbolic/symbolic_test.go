package symbolic

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/sparse"
)

// bruteFactor plays the elimination game on dense sets: the reference
// implementation for both the factor structure and the elimination tree.
func bruteFactor(m *sparse.Matrix) [][]int {
	n := m.N
	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	for j := 0; j < n; j++ {
		for _, i := range m.Col(j)[1:] {
			adj[j][int(i)] = true
			adj[i][j] = true
		}
	}
	cols := make([][]int, n)
	for v := 0; v < n; v++ {
		var higher []int
		for u := range adj[v] {
			if u > v {
				higher = append(higher, u)
			}
		}
		sort.Ints(higher)
		cols[v] = append([]int{v}, higher...)
		for a := 0; a < len(higher); a++ {
			for b := a + 1; b < len(higher); b++ {
				adj[higher[a]][higher[b]] = true
				adj[higher[b]][higher[a]] = true
			}
		}
	}
	return cols
}

func bruteParent(cols [][]int) []int {
	parent := make([]int, len(cols))
	for j := range cols {
		if len(cols[j]) > 1 {
			parent[j] = cols[j][1]
		} else {
			parent[j] = -1
		}
	}
	return parent
}

func checkFactorMatchesBrute(t *testing.T, m *sparse.Matrix) {
	t.Helper()
	f := Analyze(m)
	want := bruteFactor(m)
	for j := 0; j < m.N; j++ {
		got := f.Col(j)
		if len(got) != len(want[j]) {
			t.Fatalf("col %d: got %v, want %v", j, got, want[j])
		}
		for k := range got {
			if int(got[k]) != want[j][k] {
				t.Fatalf("col %d: got %v, want %v", j, got, want[j])
			}
		}
	}
	wantParent := bruteParent(want)
	for j, p := range f.Parent {
		if p != wantParent[j] {
			t.Fatalf("parent[%d] = %d, want %d", j, p, wantParent[j])
		}
	}
}

func TestAnalyzeSmallKnown(t *testing.T) {
	// Arrow matrix: column 0 connected to everyone. No fill (already
	// chordal with this ordering): struct(j) = {j, n-1}? No: arrow head at
	// 0 means col 0 = everything, and eliminating 0 fills in ALL pairs.
	m, _ := sparse.NewPattern(4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	f := Analyze(m)
	if f.NNZ() != 10 { // complete fill: 4+3+2+1
		t.Errorf("arrow-head fill nnz = %d, want 10", f.NNZ())
	}
	// Reversed arrow (hub last) has no fill.
	m2, _ := sparse.NewPattern(4, [][2]int{{3, 0}, {3, 1}, {3, 2}})
	f2 := Analyze(m2)
	if f2.NNZ() != m2.NNZ() {
		t.Errorf("hub-last fill nnz = %d, want %d", f2.NNZ(), m2.NNZ())
	}
	for j := 0; j < 3; j++ {
		if f2.Parent[j] != 3 {
			t.Errorf("parent[%d] = %d, want 3", j, f2.Parent[j])
		}
	}
	if f2.Parent[3] != -1 {
		t.Errorf("root parent = %d, want -1", f2.Parent[3])
	}
}

func TestAnalyzeMatchesBruteForceRandom(t *testing.T) {
	f := func(seed int64) bool {
		m := gen.Random(30, 1.5, seed)
		fac := Analyze(m)
		want := bruteFactor(m)
		for j := 0; j < m.N; j++ {
			got := fac.Col(j)
			if len(got) != len(want[j]) {
				return false
			}
			for k := range got {
				if int(got[k]) != want[j][k] {
					return false
				}
			}
		}
		wp := bruteParent(want)
		for j := range wp {
			if fac.Parent[j] != wp[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEtreeRegressionColumnDriven(t *testing.T) {
	// Regression for the column-driven ancestor walk bug: requires an
	// entry pattern where a later column's walk meets a higher ancestor.
	// A (lower): (4,0), (2,1), (4,1), (3,2).
	m, _ := sparse.NewPattern(5, [][2]int{{4, 0}, {2, 1}, {4, 1}, {3, 2}})
	checkFactorMatchesBrute(t, m)
	f := Analyze(m)
	if f.Parent[2] != 3 {
		t.Fatalf("parent[2] = %d, want 3", f.Parent[2])
	}
}

func TestPostOrderValid(t *testing.T) {
	f := func(seed int64) bool {
		m := gen.Random(40, 1.0, seed)
		fac := Analyze(m)
		post := postOrderOf(fac.Parent)
		if !order.IsPermutation(post) {
			return false
		}
		pos := make([]int, len(post))
		for k, v := range post {
			pos[v] = k
		}
		for j, p := range fac.Parent {
			if p != -1 && pos[j] > pos[p] {
				return false // child after parent
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPostOrderChain(t *testing.T) {
	parent := []int{1, 2, 3, -1}
	post := postOrderOf(parent)
	want := []int{0, 1, 2, 3}
	for k := range want {
		if post[k] != want[k] {
			t.Fatalf("post = %v, want %v", post, want)
		}
	}
}

func TestHasAndPattern(t *testing.T) {
	m, _ := sparse.NewPattern(5, [][2]int{{0, 1}, {0, 2}, {3, 4}})
	f := Analyze(m)
	if !f.Has(2, 0) || f.Has(3, 0) {
		t.Error("Has wrong")
	}
	p := f.Pattern()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NNZ() != f.NNZ() {
		t.Error("pattern nnz mismatch")
	}
}

func TestSupernodesPartition(t *testing.T) {
	f := func(seed int64) bool {
		m := gen.Random(50, 1.2, seed)
		p := order.MMD(m)
		pm, err := m.Permute(p)
		if err != nil {
			return false
		}
		fac := Analyze(pm)
		sn := fac.Supernodes()
		// Valid partition of 0..n-1.
		if sn[0] != 0 || sn[len(sn)-1] != m.N {
			return false
		}
		for k := 1; k < len(sn); k++ {
			if sn[k] <= sn[k-1] {
				return false
			}
		}
		// Within a supernode, column structures nest exactly.
		for k := 0; k+1 < len(sn); k++ {
			for j := sn[k] + 1; j < sn[k+1]; j++ {
				if fac.Parent[j-1] != j || fac.ColLen(j-1) != fac.ColLen(j)+1 {
					return false
				}
				// struct(j-1) minus its diagonal equals struct(j).
				a, b := fac.Col(j - 1)[1:], fac.Col(j)
				for x := range a {
					if a[x] != b[x] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSupernodesDenseTrailing(t *testing.T) {
	// Complete graph: one supernode spanning everything.
	var edges [][2]int
	for i := 0; i < 6; i++ {
		for j := 0; j < i; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	m, _ := sparse.NewPattern(6, edges)
	f := Analyze(m)
	sn := f.Supernodes()
	if len(sn) != 2 || sn[0] != 0 || sn[1] != 6 {
		t.Fatalf("supernodes of K6 = %v, want [0 6]", sn)
	}
}

func TestLap30FillNearPaper(t *testing.T) {
	// Paper Table 1: LAP30 with Liu's MMD gives 16697 factor nonzeros.
	// Our MMD differs in tie-breaking, so require the same ballpark.
	m := gen.Lap30()
	p := order.MMD(m)
	pm, err := m.Permute(p)
	if err != nil {
		t.Fatal(err)
	}
	f := Analyze(pm)
	nnz := f.NNZ()
	t.Logf("LAP30 MMD factor nnz = %d (paper: 16697)", nnz)
	if nnz < 12000 || nnz > 22000 {
		t.Errorf("LAP30 factor nnz = %d, out of plausible MMD range [12000,22000]", nnz)
	}
	// MMD must beat the natural ordering (which is itself banded and thus
	// already decent on grid problems).
	fnat := Analyze(m)
	if nnz >= fnat.NNZ() {
		t.Errorf("MMD fill %d not better than natural %d", nnz, fnat.NNZ())
	}
}

func TestSuiteFillNearPaper(t *testing.T) {
	// All five matrices should land within a factor of ~2 of the paper's
	// factor nonzero counts (three are synthetic approximations).
	for _, tm := range gen.Suite() {
		m := tm.Build()
		pm, err := m.Permute(order.MMD(m))
		if err != nil {
			t.Fatal(err)
		}
		f := Analyze(pm)
		nnz := f.NNZ()
		t.Logf("%s: factor nnz = %d (paper: %d)", tm.Name, nnz, tm.PaperFactorNNZ)
		lo, hi := tm.PaperFactorNNZ/2, tm.PaperFactorNNZ*2
		if nnz < lo || nnz > hi {
			t.Errorf("%s: factor nnz %d outside [%d,%d]", tm.Name, nnz, lo, hi)
		}
	}
}

func TestSortIntsLarge(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%200) + 30
		if n < 0 {
			n = -n
		}
		a := make([]int, n)
		x := uint64(seed)
		for i := range a {
			x = x*6364136223846793005 + 1442695040888963407
			a[i] = int(x % 1000)
		}
		slices.Sort(a)
		return sort.IntsAreSorted(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
