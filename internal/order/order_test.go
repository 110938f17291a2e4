package order

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sparse"
)

// eliminationFill plays the elimination game on the adjacency structure and
// returns the number of lower-triangle factor nonzeros (including the
// diagonal) for the given ordering. Brute force; test oracle only.
func eliminationFill(m *sparse.Matrix, order []int) int {
	n := m.N
	inv := Inverse(order)
	// adjacency over new labels
	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	for j := 0; j < n; j++ {
		for _, i := range m.Col(j)[1:] {
			ni, nj := inv[i], inv[j]
			adj[ni][nj] = true
			adj[nj][ni] = true
		}
	}
	nnz := n
	for v := 0; v < n; v++ {
		var higher []int
		for u := range adj[v] {
			if u > v {
				higher = append(higher, u)
			}
		}
		nnz += len(higher)
		for a := 0; a < len(higher); a++ {
			for b := a + 1; b < len(higher); b++ {
				adj[higher[a]][higher[b]] = true
				adj[higher[b]][higher[a]] = true
			}
		}
	}
	return nnz
}

func TestMMDIsPermutation(t *testing.T) {
	for _, tm := range gen.Suite() {
		m := tm.Build()
		p := MMD(m)
		if !IsPermutation(p) {
			t.Errorf("%s: MMD output is not a permutation", tm.Name)
		}
	}
}

func TestMMDPathGraph(t *testing.T) {
	// A path graph has a perfect elimination ordering with zero fill; MMD
	// must find one (every tree does).
	var edges [][2]int
	for i := 0; i < 19; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	m, _ := sparse.NewPattern(20, edges)
	p := MMD(m)
	if !IsPermutation(p) {
		t.Fatal("not a permutation")
	}
	if fill := eliminationFill(m, p); fill != m.NNZ() {
		t.Errorf("MMD on a path produced fill: nnz(L)=%d, want %d", fill, m.NNZ())
	}
}

func TestMMDTreeNoFill(t *testing.T) {
	// Any tree admits a no-fill ordering (leaves first). MMD achieves it.
	f := func(seed int64) bool {
		m := gen.Random(40, 0, seed) // density 0 => spanning tree only
		p := MMD(m)
		if !IsPermutation(p) {
			return false
		}
		return eliminationFill(m, p) == m.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMMDNeverWorseThanNaturalOnGrids(t *testing.T) {
	m := gen.Grid5(8, 8)
	nat := eliminationFill(m, Natural(m.N))
	mmd := eliminationFill(m, MMD(m))
	if mmd > nat {
		t.Errorf("MMD fill %d worse than natural %d on 8x8 grid", mmd, nat)
	}
	// MMD should be substantially better on grids.
	if float64(mmd) > 0.8*float64(nat) {
		t.Errorf("MMD fill %d not much better than natural %d", mmd, nat)
	}
}

func TestMMDRandomGraphsValidAndGood(t *testing.T) {
	f := func(seed int64) bool {
		m := gen.Random(35, 1.2, seed)
		p := MMD(m)
		if !IsPermutation(p) {
			return false
		}
		nat := eliminationFill(m, Natural(m.N))
		mmd := eliminationFill(m, p)
		return mmd <= nat+5 // tiny graphs can tie; never much worse
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMMDCompleteGraph(t *testing.T) {
	var edges [][2]int
	n := 8
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	m, _ := sparse.NewPattern(n, edges)
	p := MMD(m)
	if !IsPermutation(p) {
		t.Fatal("not a permutation")
	}
	if fill := eliminationFill(m, p); fill != n*(n+1)/2 {
		t.Errorf("complete graph fill = %d, want %d", fill, n*(n+1)/2)
	}
}

func TestMMDSingletonAndEmpty(t *testing.T) {
	m, _ := sparse.NewPattern(1, nil)
	if p := MMD(m); len(p) != 1 || p[0] != 0 {
		t.Errorf("MMD on singleton = %v", p)
	}
	e, _ := sparse.NewPattern(0, nil)
	if p := MMD(e); len(p) != 0 {
		t.Errorf("MMD on empty = %v", p)
	}
}

func TestMMDDisconnected(t *testing.T) {
	// Two disjoint triangles plus isolated nodes.
	m, _ := sparse.NewPattern(8, [][2]int{{0, 1}, {1, 2}, {2, 0}, {4, 5}, {5, 6}, {6, 4}})
	p := MMD(m)
	if !IsPermutation(p) {
		t.Fatal("not a permutation")
	}
	if fill := eliminationFill(m, p); fill != m.NNZ() {
		t.Errorf("fill on triangles = %d, want %d (cliques are chordal)", fill, m.NNZ())
	}
}

// bandwidth returns the maximum |i-j| over stored off-diagonal entries,
// a quality metric for RCM.
func bandwidth(m *sparse.Matrix) int {
	bw := 0
	for j := 0; j < m.N; j++ {
		col := m.Col(j)
		if len(col) > 1 {
			if d := col[len(col)-1] - j; d > bw {
				bw = d
			}
		}
	}
	return bw
}

func TestRCMReducesBandwidth(t *testing.T) {
	m := gen.Grid5(10, 10)
	// Scramble first so natural banding does not help.
	scr, err := m.Permute(MMD(m)) // any scramble
	if err != nil {
		t.Fatal(err)
	}
	p := RCM(scr)
	if !IsPermutation(p) {
		t.Fatal("RCM not a permutation")
	}
	rm, err := scr.Permute(p)
	if err != nil {
		t.Fatal(err)
	}
	if bw, orig := bandwidth(rm), bandwidth(scr); bw > orig {
		t.Errorf("RCM bandwidth %d worse than input %d", bw, orig)
	}
	if bw := bandwidth(rm); bw > 14 {
		t.Errorf("RCM bandwidth on 10x10 grid = %d, want near 10", bw)
	}
}

func TestRCMDisconnected(t *testing.T) {
	m, _ := sparse.NewPattern(6, [][2]int{{0, 1}, {3, 4}})
	p := RCM(m)
	if !IsPermutation(p) {
		t.Fatalf("RCM on disconnected graph = %v", p)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		m := gen.Random(25, 1, seed)
		p := MMD(m)
		inv := Inverse(p)
		for k, o := range p {
			if inv[o] != k {
				return false
			}
		}
		return IsPermutation(inv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestIsPermutationRejects(t *testing.T) {
	if IsPermutation([]int{0, 0}) || IsPermutation([]int{1, 2}) || IsPermutation([]int{-1, 0}) {
		t.Fatal("IsPermutation accepted invalid input")
	}
	if !IsPermutation(nil) || !IsPermutation([]int{0}) {
		t.Fatal("IsPermutation rejected valid input")
	}
}
