package symbolic

import (
	"reflect"
	"testing"

	"repro/internal/sparse"
)

// treeFixture is a small forest in the Parent convention:
//
//	  3        5
//	 / \       |
//	0   2      4
//	    |
//	    1
var treeFixture = []int{3, 2, 3, -1, 5, -1}

func TestRoots(t *testing.T) {
	if got, want := Roots(treeFixture), []int32{3, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("Roots = %v, want %v", got, want)
	}
}

func TestChildren(t *testing.T) {
	children := Children(treeFixture)
	want := [][]int32{nil, nil, {1}, {0, 2}, nil, {4}}
	for j := range want {
		if len(children[j]) == 0 && len(want[j]) == 0 {
			continue
		}
		if !reflect.DeepEqual(children[j], want[j]) {
			t.Errorf("Children[%d] = %v, want %v", j, children[j], want[j])
		}
	}
	// The lists share one backing array: appending to one must copy it.
	_ = append(children[2], 9)
	if !reflect.DeepEqual(children[3], want[3]) {
		t.Errorf("appending to Children[2] wrote Children[3]: %v", children[3])
	}
}

func TestSubtreeSums(t *testing.T) {
	weight := []int64{1, 2, 4, 8, 16, 32}
	got := SubtreeSums(treeFixture, weight)
	want := []int64{1, 2, 6, 15, 16, 48}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SubtreeSums = %v, want %v", got, want)
	}
}

func TestSubtreeSumsPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SubtreeSums with mismatched weight length did not panic")
		}
	}()
	SubtreeSums(treeFixture, []int64{1})
}

// TestTreeUtilitiesOnEliminationTree checks the utilities against a real
// elimination tree: the subtree sum at each root counts exactly the
// columns of its tree, and every column reaches exactly one root.
func TestTreeUtilitiesOnEliminationTree(t *testing.T) {
	m := tridiag(8)
	parent := eliminationTree(m)
	ones := make([]int64, len(parent))
	for i := range ones {
		ones[i] = 1
	}
	sums := SubtreeSums(parent, ones)
	var total int64
	for _, r := range Roots(parent) {
		total += sums[r]
	}
	if total != int64(m.N) {
		t.Errorf("root subtree sums total %d, want %d", total, m.N)
	}
	children := Children(parent)
	seen := 0
	for j := range parent {
		seen += len(children[j])
	}
	if seen+len(Roots(parent)) != m.N {
		t.Errorf("children lists cover %d nodes + %d roots, want %d",
			seen, len(Roots(parent)), m.N)
	}
}

// tridiag builds a symmetric tridiagonal pattern (lower triangle).
func tridiag(n int) *sparse.Matrix {
	m := &sparse.Matrix{N: n, ColPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		m.ColPtr[j] = len(m.RowInd)
		m.RowInd = append(m.RowInd, int32(j))
		if j+1 < n {
			m.RowInd = append(m.RowInd, int32(j+1))
		}
	}
	m.ColPtr[n] = len(m.RowInd)
	return m
}
