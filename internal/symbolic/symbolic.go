// Package symbolic implements the symbolic factorization phase of sparse
// Cholesky: the elimination tree, the nonzero structure of the factor L,
// and the detection of fundamental supernodes.
//
// The paper's partitioner (Section 3) "starts with the zero-nonzero
// structure of the filled sparse matrix obtained after the symbolic
// factorization phase has been completed"; this package produces that
// structure. Supernodes are the "clusters" of Section 3.1: strips of
// consecutive columns with a dense triangular block at the top and dense
// rectangular blocks below.
package symbolic

import (
	"fmt"
	"sync"

	"repro/internal/sparse"
)

// Factor holds the nonzero structure of the Cholesky factor L of a
// symmetric matrix, in compressed sparse column form over the lower
// triangle. The first entry of every column is its diagonal; row indices
// are strictly increasing within a column.
type Factor struct {
	N      int
	ColPtr []int
	RowInd []int
	// Parent is the elimination tree: Parent[j] is the parent of column j,
	// or -1 for a root.
	Parent []int

	rowsOnce sync.Once
	rows     RowIndex
}

// RowIndex is the strict lower triangle of a factor structure by rows: row
// r is the slice [Ptr[r], Ptr[r+1]) of two parallel arrays, Cols listing
// the columns k < r with L[r,k] != 0, increasing, and Pos the factor
// nonzero position of each (r, k). Read in that order it is the canonical
// update sequence of column r, which every numeric kernel follows.
type RowIndex struct {
	Ptr, Cols, Pos []int32
}

// Rows returns the row index of f, built on first use and shared from then
// on by model.Ops, the serial kernel and every compiled program; it is
// read-only and safe to ask for from any number of goroutines.
func (f *Factor) Rows() *RowIndex {
	f.rowsOnce.Do(func() {
		n := f.N
		ptr := make([]int32, n+1)
		for j := 0; j < n; j++ {
			for _, i := range f.Col(j)[1:] {
				ptr[i+1]++
			}
		}
		for i := 0; i < n; i++ {
			ptr[i+1] += ptr[i]
		}
		half := f.NNZ() - n
		both := make([]int32, 2*half)
		cols, pos := both[:half:half], both[half:]
		// ptr[i] is the cursor of row i while the rows fill, which leaves it
		// at the start of row i+1: shift back afterwards.
		for j := 0; j < n; j++ {
			base := f.ColPtr[j]
			for t, i := range f.Col(j)[1:] {
				at := ptr[i]
				ptr[i]++
				cols[at], pos[at] = int32(j), int32(base+1+t)
			}
		}
		copy(ptr[1:], ptr[:n])
		if n > 0 {
			ptr[0] = 0
		}
		f.rows = RowIndex{Ptr: ptr, Cols: cols, Pos: pos}
	})
	return &f.rows
}

// NNZ returns the number of structural nonzeros of L (lower, incl. diag).
func (f *Factor) NNZ() int { return len(f.RowInd) }

// Col returns the sorted row indices of column j, including the diagonal.
// The slice aliases internal storage.
func (f *Factor) Col(j int) []int { return f.RowInd[f.ColPtr[j]:f.ColPtr[j+1]] }

// ColLen returns the number of nonzeros in column j including the diagonal.
func (f *Factor) ColLen(j int) int { return f.ColPtr[j+1] - f.ColPtr[j] }

// ColIndex maps every factor nonzero position to its column.
func (f *Factor) ColIndex() []int32 {
	colOf := make([]int32, f.NNZ())
	for j := 0; j < f.N; j++ {
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			colOf[q] = int32(j)
		}
	}
	return colOf
}

// Has reports whether position (i, j), i >= j, is in the factor structure.
func (f *Factor) Has(i, j int) bool {
	col := f.Col(j)
	lo, hi := 0, len(col)
	for lo < hi {
		mid := (lo + hi) / 2
		if col[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(col) && col[lo] == i
}

// Pattern converts the factor structure to a sparse.Matrix pattern
// (no values), e.g. for spy plots.
func (f *Factor) Pattern() *sparse.Matrix {
	return &sparse.Matrix{
		N:      f.N,
		ColPtr: append([]int(nil), f.ColPtr...),
		RowInd: append([]int(nil), f.RowInd...),
	}
}

// rowIndex returns the strict lower triangle of m by rows: the columns
// j < i with A[i][j] != 0 are idx[ptr[i]:ptr[i+1]], increasing.
func rowIndex(m *sparse.Matrix) (ptr, idx []int) {
	n := m.N
	ptr = make([]int, n+1)
	idx = make([]int, m.OffDiagNNZ())
	for j := 0; j < n; j++ {
		for _, i := range m.Col(j)[1:] {
			ptr[i+1]++
		}
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	// ptr[i] is the cursor of row i while the rows fill, which leaves it at
	// the start of row i+1: shift back afterwards.
	for j := 0; j < n; j++ {
		for _, i := range m.Col(j)[1:] {
			idx[ptr[i]] = j
			ptr[i]++
		}
	}
	copy(ptr[1:], ptr[:n])
	if n > 0 {
		ptr[0] = 0
	}
	return ptr, idx
}

// EliminationTree computes the elimination tree of the symmetric matrix m
// using Liu's algorithm with path compression. parent[j] = -1 marks roots.
func EliminationTree(m *sparse.Matrix) []int {
	ptr, idx := rowIndex(m)
	return etree(ptr, idx, make([]int, m.N))
}

// etree is EliminationTree over the row index; ancestor is scratch of
// length n. Entries must be processed grouped by row in increasing row
// order: the ancestor pointers are only monotone under that schedule.
func etree(ptr, idx, ancestor []int) []int {
	n := len(ancestor)
	parent := make([]int, n)
	for i := 0; i < n; i++ {
		parent[i] = -1
		ancestor[i] = -1
		for _, j := range idx[ptr[i]:ptr[i+1]] {
			// Walk from j to the root of its subtree, compressing the path
			// onto i and grafting the root under i.
			for j != -1 && j < i {
				next := ancestor[j]
				ancestor[j] = i
				if next == -1 {
					parent[j] = i
				}
				j = next
			}
		}
	}
	return parent
}

// PostOrder returns a postordering of the forest given by parent:
// every node appears after all of its children. Children are visited in
// increasing order, making the result deterministic.
func PostOrder(parent []int) []int {
	n := len(parent)
	head := make([]int, n) // first child
	next := make([]int, n) // next sibling
	for i := range head {
		head[i] = -1
		next[i] = -1
	}
	var roots []int
	// Build child lists in decreasing order so traversal sees increasing.
	for j := n - 1; j >= 0; j-- {
		p := parent[j]
		if p == -1 {
			roots = append(roots, j)
			continue
		}
		next[j] = head[p]
		head[p] = j
	}
	// roots currently in decreasing order; reverse for determinism.
	for i, k := 0, len(roots)-1; i < k; i, k = i+1, k-1 {
		roots[i], roots[k] = roots[k], roots[i]
	}
	post := make([]int, 0, n)
	stack := make([]int, 0, 64)
	var childBuf []int
	for _, r := range roots {
		stack = append(stack, r)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if head[v] != -1 {
				// Push children in reverse so they pop in increasing order.
				childBuf = childBuf[:0]
				for c := head[v]; c != -1; c = next[c] {
					childBuf = append(childBuf, c)
				}
				head[v] = -1 // children pushed once
				for k := len(childBuf) - 1; k >= 0; k-- {
					stack = append(stack, childBuf[k])
				}
				continue
			}
			stack = stack[:len(stack)-1]
			post = append(post, v)
		}
	}
	if len(post) != n {
		panic(fmt.Sprintf("symbolic: postorder produced %d of %d", len(post), n))
	}
	return post
}

// Analyze computes the full symbolic factorization of m: the elimination
// tree and the complete nonzero structure of L. It runs in time
// proportional to the size of the output structure.
//
// Row i of L is the union of the tree paths from the columns of row i of A
// up to i (its row subtree). Walking every row subtree once counts the
// columns; walking them again in increasing i appends i to each column it
// meets, so the columns come out sorted and sized exactly.
func Analyze(m *sparse.Matrix) *Factor {
	n := m.N
	ptr, idx := rowIndex(m)
	work := make([]int, 2*n)
	mark, next := work[:n], work[n:]
	f := &Factor{N: n, ColPtr: make([]int, n+1), Parent: etree(ptr, idx, mark)}
	parent := f.Parent
	// A walk from row i reads mark[k] only for k < i, which row k of the
	// same sweep set to k: what etree or an earlier sweep left is never read.
	for i := 0; i < n; i++ {
		mark[i] = i
		for _, k := range idx[ptr[i]:ptr[i+1]] {
			for ; mark[k] != i; k = parent[k] {
				mark[k] = i
				f.ColPtr[k+1]++
			}
		}
	}
	for j := 0; j < n; j++ {
		f.ColPtr[j+1] += f.ColPtr[j] + 1 // the diagonal
	}
	f.RowInd = make([]int, f.ColPtr[n])
	for i := 0; i < n; i++ {
		mark[i] = i
		f.RowInd[f.ColPtr[i]] = i
		next[i] = f.ColPtr[i] + 1
		for _, k := range idx[ptr[i]:ptr[i+1]] {
			for ; mark[k] != i; k = parent[k] {
				mark[k] = i
				f.RowInd[next[k]] = i
				next[k]++
			}
		}
	}
	return f
}

// Supernodes returns the fundamental supernode partition of the factor:
// starts[k] is the first column of supernode k, and starts has one extra
// final entry equal to N. Columns j-1 and j share a supernode iff
// Parent[j-1] == j and ColLen(j-1) == ColLen(j)+1, the classical
// fundamental-supernode condition (structure containment along the etree
// makes the count test exact).
func (f *Factor) Supernodes() []int {
	starts := []int{}
	for j := 0; j < f.N; j++ {
		if j == 0 {
			starts = append(starts, 0)
			continue
		}
		if f.Parent[j-1] == j && f.ColLen(j-1) == f.ColLen(j)+1 {
			continue
		}
		starts = append(starts, j)
	}
	starts = append(starts, f.N)
	return starts
}
