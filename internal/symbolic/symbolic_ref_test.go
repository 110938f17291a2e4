package symbolic

// EliminationTree and Analyze as they stood before the row-index rewrite
// (row lists as [][]int, a column merge into a growing buffer per column,
// sorted), kept as the oracle the rewrite is held to.

import (
	"slices"

	"repro/internal/sparse"
)

// refEliminationTree computes the elimination tree of the symmetric matrix m
// using Liu's algorithm with path compression. parent[j] = -1 marks roots.
//
// Entries must be processed grouped by row in increasing row order (the
// ancestor pointers are only monotone under that schedule), so the lower
// triangle is first bucketed into row lists.
func refEliminationTree(m *sparse.Matrix) []int {
	n := m.N
	// rows[i] = columns j < i with A[i][j] != 0.
	counts := make([]int, n)
	for j := 0; j < n; j++ {
		for _, i := range m.Col(j)[1:] {
			counts[i]++
		}
	}
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = make([]int, 0, counts[i])
	}
	for j := 0; j < n; j++ {
		for _, i := range m.Col(j)[1:] {
			rows[i] = append(rows[i], j)
		}
	}
	parent := make([]int, n)
	ancestor := make([]int, n)
	for i := 0; i < n; i++ {
		parent[i] = -1
		ancestor[i] = -1
		for _, j := range rows[i] {
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

// refAnalyze computes the full symbolic factorization of m: the elimination
// tree and the complete nonzero structure of L. It runs in time
// proportional to the size of the output structure.
func refAnalyze(m *sparse.Matrix) *Factor {
	n := m.N
	parent := refEliminationTree(m)
	// Children lists.
	childHead := make([]int, n)
	childNext := make([]int, n)
	for i := range childHead {
		childHead[i] = -1
		childNext[i] = -1
	}
	for j := n - 1; j >= 0; j-- {
		if p := parent[j]; p != -1 {
			childNext[j] = childHead[p]
			childHead[p] = j
		}
	}
	// Column merge: struct(j) = Acol(j) U union over children c of
	// (struct(c) minus {c}), all restricted to rows >= j.
	cols := make([][]int, n)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	for j := 0; j < n; j++ {
		var buf []int
		mark[j] = j
		buf = append(buf, j)
		for _, i := range m.Col(j)[1:] {
			if mark[i] != j {
				mark[i] = j
				buf = append(buf, i)
			}
		}
		for c := childHead[j]; c != -1; c = childNext[c] {
			for _, i := range cols[c][1:] { // skip child's diagonal
				if i == j {
					continue
				}
				if mark[i] != j {
					mark[i] = j
					buf = append(buf, i)
				}
			}
		}
		slices.Sort(buf)
		cols[j] = buf
	}
	f := &Factor{N: n, ColPtr: make([]int, n+1), Parent: parent}
	nnz := 0
	for j := 0; j < n; j++ {
		nnz += len(cols[j])
	}
	f.RowInd = make([]int, 0, nnz)
	for j := 0; j < n; j++ {
		f.ColPtr[j] = len(f.RowInd)
		f.RowInd = append(f.RowInd, cols[j]...)
	}
	f.ColPtr[n] = len(f.RowInd)
	return f
}
