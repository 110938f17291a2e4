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
	"math"
	"slices"
	"sync"

	"repro/internal/sparse"
)

// Factor holds the nonzero structure of the Cholesky factor L of a
// symmetric matrix, in compressed sparse column form over the lower
// triangle. The first entry of every column is its diagonal; row indices
// are strictly increasing within a column. A row index takes four bytes:
// it is held once, by RowInd, and read in place by every kernel, by the
// row index (Rows) and by a compiled column graph, whose successors are
// the rows below each diagonal. Positions index RowInd and stay below
// MaxNNZ, so they fit an int32 too; ColPtr stays []int.
type Factor struct {
	N      int
	ColPtr []int
	RowInd []int32
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
func (f *Factor) Col(j int) []int32 { return f.RowInd[f.ColPtr[j]:f.ColPtr[j+1]] }

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
	_, ok := slices.BinarySearch(f.Col(j), int32(i))
	return ok
}

// Pattern converts the factor structure to a sparse.Matrix pattern
// (no values), e.g. for spy plots.
func (f *Factor) Pattern() *sparse.Matrix {
	rowInd := make([]int, len(f.RowInd))
	for q, i := range f.RowInd {
		rowInd[q] = int(i)
	}
	return &sparse.Matrix{N: f.N, ColPtr: append([]int(nil), f.ColPtr...), RowInd: rowInd}
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
// every node appears after all of its children. Roots and the children of
// every node are visited in increasing order, making the result
// deterministic.
func PostOrder(parent []int) []int {
	n := len(parent)
	w := make([]int, 4*n)
	post := w[:n:n]
	if k := postOrder(parent, post, w[n:]); k != n {
		panic(fmt.Sprintf("symbolic: postorder produced %d of %d", k, n))
	}
	return post
}

// postOrder writes PostOrder(parent) into post and returns how many nodes
// it placed, n unless parent has a cycle; w is scratch of length 3n: child
// lists and the depth-first stack.
func postOrder(parent, post, w []int) int {
	n := len(parent)
	head, next, stack := w[:n], w[n:2*n], w[2*n:3*n]
	for j := range head {
		head[j] = -1
	}
	// Lists built from the last child to the first pop in increasing order.
	for j := n - 1; j >= 0; j-- {
		if p := parent[j]; p != -1 {
			next[j], head[p] = head[p], j
		}
	}
	k := 0
	for r, p := range parent {
		if p != -1 {
			continue
		}
		top := 0
		stack[0] = r
		for top >= 0 {
			v := stack[top]
			if c := head[v]; c != -1 {
				head[v] = next[c]
				top++
				stack[top] = c
				continue
			}
			top--
			post[k] = v
			k++
		}
	}
	return k
}

// MaxNNZ is the largest number of nonzeros a factor may have: positions,
// like row indices, are int32 wherever they are held (RowInd, Rows, the
// compiled programs' steps and task maps).
const MaxNNZ = math.MaxInt32

// Analyze computes the full symbolic factorization of m: the elimination
// tree and the complete nonzero structure of L. It runs in time
// proportional to the size of the output structure. A factor of more than
// MaxNNZ nonzeros panics; NewFactor reports it as an error.
func Analyze(m *sparse.Matrix) *Factor {
	f, err := NewFactor(m)
	if err != nil {
		panic(fmt.Sprintf("symbolic: %v", err))
	}
	return f
}

// NewFactor is Analyze with a factor past MaxNNZ nonzeros an error, found
// by the counting pass before anything of that size is allocated.
//
// Row i of L is the union of the tree paths from the columns of row i of A
// up to i (its row subtree). colCounts sizes the columns in O(nnz(A))
// time; walking every row subtree in increasing i then appends i to each
// column it meets, so the columns come out sorted.
func NewFactor(m *sparse.Matrix) (*Factor, error) {
	n := m.N
	ptr, idx := rowIndex(m)
	work := make([]int, 5*n)
	mark, next := work[:n], work[n:2*n]
	f := &Factor{N: n, ColPtr: make([]int, n+1), Parent: etree(ptr, idx, mark)}
	parent := f.Parent
	colCounts(m, parent, f.ColPtr[1:], work)
	for j := 0; j < n; j++ {
		f.ColPtr[j+1] += f.ColPtr[j]
	}
	if f.ColPtr[n] > MaxNNZ {
		return nil, fmt.Errorf("factor has %d nonzeros, more than %d (positions are int32)", f.ColPtr[n], MaxNNZ)
	}
	// A walk from row i reads mark[k] only for k < i, which row k of the
	// same sweep set to k: what etree and colCounts left is never read.
	f.RowInd = make([]int32, f.ColPtr[n])
	for i := 0; i < n; i++ {
		mark[i] = i
		f.RowInd[f.ColPtr[i]] = int32(i)
		next[i] = f.ColPtr[i] + 1
		for _, k := range idx[ptr[i]:ptr[i+1]] {
			for ; mark[k] != i; k = parent[k] {
				mark[k] = i
				f.RowInd[next[k]] = int32(i)
				next[k]++
			}
		}
	}
	return f, nil
}

// colCounts sets count[j] to the length of column j of L, the diagonal
// included, without forming L: the skeleton algorithm of Gilbert, Ng and
// Peyton (CSparse's cs_counts) in O(nnz(A)·α(n)) time and O(n) space.
// Column j of L holds the rows whose row subtree contains j. Visiting the
// columns in postorder, an entry A(i,j), i > j, whose column j is a leaf
// of row i's subtree adds one to j; unless it is the row's first leaf,
// the least common ancestor of it and the row's previous leaf takes one
// back. Summed up the tree, the deltas count each row subtree through
// every one of its columns exactly once. w is scratch of length 5n.
func colCounts(m *sparse.Matrix, parent, count, w []int) {
	n := m.N
	post := w[4*n : 5*n]
	postOrder(parent, post, w)
	first, maxFirst, prevLeaf, ancestor := w[:n], w[n:2*n], w[2*n:3*n], w[3*n:4*n]
	for j := 0; j < n; j++ {
		first[j], maxFirst[j], prevLeaf[j], ancestor[j] = -1, -1, -1, j
	}
	// first[j] is the postorder index of j's first descendant; a leaf
	// starts at 1, every other column at 0.
	for k, j := range post {
		count[j] = 0
		if first[j] == -1 {
			count[j] = 1
		}
		for ; j != -1 && first[j] == -1; j = parent[j] {
			first[j] = k
		}
	}
	for _, j := range post {
		if p := parent[j]; p != -1 {
			count[p]--
		}
		for _, i := range m.Col(j)[1:] {
			// j is a leaf of row i's subtree unless a descendant of it was
			// one already.
			if first[j] <= maxFirst[i] {
				continue
			}
			maxFirst[i] = first[j]
			prev := prevLeaf[i]
			prevLeaf[i] = j
			count[j]++
			if prev == -1 {
				continue
			}
			q := prev
			for q != ancestor[q] {
				q = ancestor[q]
			}
			for s := prev; s != q; {
				s, ancestor[s] = ancestor[s], q
			}
			count[q]--
		}
		if p := parent[j]; p != -1 {
			ancestor[j] = p
		}
	}
	for j := 0; j < n; j++ {
		if p := parent[j]; p != -1 {
			count[p] += count[j]
		}
	}
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
