package sparse

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// at returns the value at (i, j) of the full symmetric matrix m, or 0
// where nothing is stored.
func at(m *Matrix, i, j int) float64 {
	if i < j {
		i, j = j, i
	}
	if k, ok := m.find(i, j); ok {
		return m.Val[k]
	}
	return 0
}

func mustPattern(t *testing.T, n int, edges [][2]int) *Matrix {
	t.Helper()
	m, err := NewPattern(n, edges)
	if err != nil {
		t.Fatalf("NewPattern: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return m
}

func TestNewPatternBasic(t *testing.T) {
	m := mustPattern(t, 4, [][2]int{{0, 1}, {1, 2}, {3, 0}, {2, 2}, {1, 0}})
	if m.NNZ() != 4+3 {
		t.Fatalf("nnz = %d, want 7", m.NNZ())
	}
	wantCols := [][]int32{{0, 1, 3}, {1, 2}, {2}, {3}}
	for j, want := range wantCols {
		if got := m.Col(j); !reflect.DeepEqual(got, want) {
			t.Errorf("col %d = %v, want %v", j, got, want)
		}
	}
	if !m.has(3, 0) || m.has(2, 0) {
		t.Errorf("Has gave wrong answers")
	}
	if m.OffDiagNNZ() != 3 {
		t.Errorf("OffDiagNNZ = %d, want 3", m.OffDiagNNZ())
	}
}

func TestNewPatternRejectsOutOfRange(t *testing.T) {
	if _, err := NewPattern(3, [][2]int{{0, 3}}); err == nil {
		t.Fatal("expected error for out-of-range edge")
	}
	if _, err := NewPattern(3, [][2]int{{-1, 0}}); err == nil {
		t.Fatal("expected error for negative index")
	}
}

func TestEmptyAndDiagonalOnly(t *testing.T) {
	m := mustPattern(t, 3, nil)
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3 (diagonal only)", m.NNZ())
	}
	e := mustPattern(t, 0, nil)
	if e.NNZ() != 0 {
		t.Fatalf("empty matrix nnz = %d", e.NNZ())
	}
	if s := e.Spy(10); s != "" {
		t.Fatalf("empty spy = %q", s)
	}
}

func TestFromTripletsSumsDuplicates(t *testing.T) {
	// (1,0) given twice, once in each triangle; diagonal 2 absent.
	rows := []int{0, 1, 0, 1, 2, 2}
	cols := []int{0, 0, 1, 1, 1, 1}
	vals := []float64{4, -1, -1, 4, -0.5, -0.5}
	m, err := FromTriplets(3, rows, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := at(m, 1, 0); got != -2 {
		t.Errorf("At(1,0) = %g, want -2 (summed duplicates)", got)
	}
	if got := at(m, 2, 1); got != -1 {
		t.Errorf("At(2,1) = %g, want -1", got)
	}
	if got := at(m, 2, 2); got != 0 {
		t.Errorf("At(2,2) = %g, want 0 (materialized diagonal)", got)
	}
	if got := at(m, 2, 0); got != 0 {
		t.Errorf("At(2,0) = %g, want 0 (absent)", got)
	}
}

func TestFromTripletsErrors(t *testing.T) {
	if _, err := FromTriplets(2, []int{0}, []int{0, 1}, nil); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := FromTriplets(2, []int{0}, []int{0}, []float64{1, 2}); err == nil {
		t.Fatal("expected values length mismatch error")
	}
	if _, err := FromTriplets(2, []int{2}, []int{0}, nil); err == nil {
		t.Fatal("expected range error")
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	m := mustPattern(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}})
	adj := m.Adjacency()
	for i := range adj {
		for _, j := range adj[i] {
			found := false
			for _, k := range adj[j] {
				if k == i {
					found = true
				}
			}
			if !found {
				t.Errorf("adjacency not symmetric: %d in adj[%d] but not vice versa", j, i)
			}
		}
		if !sort.IntsAreSorted(adj[i]) {
			t.Errorf("adj[%d] not sorted: %v", i, adj[i])
		}
	}
	deg := m.degrees()
	for i := range deg {
		if deg[i] != len(adj[i]) {
			t.Errorf("degree[%d] = %d, want %d", i, deg[i], len(adj[i]))
		}
	}
}

func TestPermuteIdentityAndReversal(t *testing.T) {
	m := mustPattern(t, 4, [][2]int{{0, 1}, {1, 2}, {0, 3}})
	m.SetLaplacianValues(1)

	id := []int{0, 1, 2, 3}
	p, err := m.Permute(id)
	if err != nil {
		t.Fatal(err)
	}
	if !PatternEqual(m, p) {
		t.Error("identity permutation changed the pattern")
	}

	rev := []int{3, 2, 1, 0}
	r, err := m.Permute(rev)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// B[i][j] == A[rev[i]][rev[j]] on the full symmetric matrix.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got, want := at(r, i, j), at(m, rev[i], rev[j]); got != want {
				t.Errorf("at(r, %d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestPermuteRejectsBadInput(t *testing.T) {
	m := mustPattern(t, 3, nil)
	if _, err := m.Permute([]int{0, 1}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := m.Permute([]int{0, 0, 1}); err == nil {
		t.Fatal("expected non-permutation error")
	}
	if _, err := m.Permute([]int{0, 1, 3}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	// Column 1 has lost its diagonal; an empty column is the same fault.
	for _, bad := range []*Matrix{
		{N: 3, ColPtr: []int{0, 2, 3, 4}, RowInd: []int32{0, 1, 2, 2}},
		{N: 3, ColPtr: []int{0, 2, 2, 3}, RowInd: []int32{0, 1, 2}},
	} {
		for _, perm := range [][]int{{0, 1, 2}, {2, 0, 1}} {
			if _, err := bad.Permute(perm); err == nil || !strings.Contains(err.Error(), "column 1 missing diagonal") {
				t.Fatalf("Permute(%v) of a matrix without diagonal 1: err = %v", perm, err)
			}
		}
	}
}

// randomPattern builds a random symmetric pattern with n in [1,20].
func randomPattern(rng *rand.Rand) *Matrix {
	n := 1 + rng.Intn(20)
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if rng.Float64() < 0.3 {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	m, err := NewPattern(n, edges)
	if err != nil {
		panic(err)
	}
	return m
}

func randomPerm(rng *rand.Rand, n int) []int {
	p := rng.Perm(n)
	return p
}

func TestPermuteRoundTripProperty(t *testing.T) {
	// Permuting by order and then by the inverse recovers the original.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomPattern(rng)
		m.SetLaplacianValues(0.5)
		order := randomPerm(rng, m.N)
		inv := make([]int, m.N)
		for k, o := range order {
			inv[o] = k
		}
		p, err := m.Permute(order)
		if err != nil {
			return false
		}
		back, err := p.Permute(inv)
		if err != nil {
			return false
		}
		if !PatternEqual(m, back) {
			return false
		}
		for j := 0; j < m.N; j++ {
			for _, i := range m.Col(j) {
				if at(m, int(i), j) != at(back, int(i), j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPermutePreservesNNZProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomPattern(rng)
		p, err := m.Permute(randomPerm(rng, m.N))
		if err != nil {
			return false
		}
		return p.NNZ() == m.NNZ() && p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSetLaplacianValuesSPD(t *testing.T) {
	m := mustPattern(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	m.SetLaplacianValues(1)
	// Strict diagonal dominance implies SPD for symmetric matrices.
	for i := 0; i < m.N; i++ {
		sum := 0.0
		for j := 0; j < m.N; j++ {
			if d := at(m, i, j); i != j {
				if d > 0 {
					t.Errorf("off-diagonal (%d,%d) = %g, want <= 0", i, j, d)
				}
				sum += -d
			}
		}
		if d := at(m, i, i); d <= sum {
			t.Errorf("row %d not strictly diagonally dominant: %g vs %g", i, d, sum)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := mustPattern(t, 3, [][2]int{{0, 2}})
	m.SetLaplacianValues(1)
	c := m.Clone()
	c.Val[0] = 99
	c.RowInd[0] = 0 // same value but distinct storage
	if m.Val[0] == 99 {
		t.Fatal("clone shares value storage")
	}
	if !PatternEqual(m, c) {
		t.Fatal("clone pattern differs")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := mustPattern(t, 3, [][2]int{{0, 1}, {1, 2}})
	bad := m.Clone()
	bad.RowInd[0] = 1 // column 0 no longer starts with its diagonal
	if bad.Validate() == nil {
		t.Error("expected diagonal violation")
	}
	bad2 := m.Clone()
	bad2.ColPtr[1] = 0
	if bad2.Validate() == nil {
		t.Error("expected colptr violation")
	}
	bad3 := m.Clone()
	bad3.Val = []float64{1}
	if bad3.Validate() == nil {
		t.Error("expected val length violation")
	}
}

func TestSpySmall(t *testing.T) {
	m := mustPattern(t, 3, [][2]int{{2, 0}})
	got := m.Spy(0)
	want := "\\  \n.\\ \n*.\\\n"
	if got != want {
		t.Errorf("Spy =\n%s\nwant\n%s", got, want)
	}
}

func TestSpyDownsamples(t *testing.T) {
	m := mustPattern(t, 100, [][2]int{{99, 0}})
	s := m.Spy(10)
	lines := 0
	for _, c := range s {
		if c == '\n' {
			lines++
		}
	}
	if lines != 10 {
		t.Fatalf("downsampled spy has %d lines, want 10", lines)
	}
	if s[len(s)-11] != '*' { // bottom-left cell of the 10x10 grid
		t.Errorf("expected '*' in bottom-left cell, got %q", s)
	}
}

func TestSpyWithBoundaries(t *testing.T) {
	m := mustPattern(t, 4, [][2]int{{1, 0}, {3, 2}})
	s := m.SpyWithBoundaries([]int{2})
	want := "\\\n*\\\n..|\\\n..|*\\\n"
	if s != want {
		t.Errorf("SpyWithBoundaries =\n%q\nwant\n%q", s, want)
	}
}
