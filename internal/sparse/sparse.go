// Package sparse provides the sparse symmetric matrix substrate used by the
// partitioning and scheduling pipeline.
//
// All symmetric matrices are stored as their lower triangle, including the
// diagonal, in compressed sparse column (CSC) form. This matches the view
// used throughout Venugopal & Naik (SC'91): Figure 1 and all the dependency
// categories of Section 3.3 are phrased over the lower triangle, and the
// nonzero counts of Table 1 are lower-triangle counts including the diagonal.
package sparse

import (
	"errors"
	"fmt"
	"sort"
)

// Matrix is a sparse symmetric matrix stored as its lower triangle
// (including the diagonal) in compressed sparse column form.
//
// Invariants (checked by Validate):
//   - len(ColPtr) == N+1, ColPtr[0] == 0, ColPtr monotone non-decreasing.
//   - Row indices within each column are strictly increasing.
//   - The first entry of column j is the diagonal element j.
//   - If Val is non-nil, len(Val) == NNZ().
type Matrix struct {
	N      int
	ColPtr []int
	RowInd []int
	// Val holds the numerical values aligned with RowInd, or nil for a
	// pattern-only matrix.
	Val []float64
}

// NNZ returns the number of stored (lower-triangle) nonzeros.
func (m *Matrix) NNZ() int { return len(m.RowInd) }

// OffDiagNNZ returns the number of stored strictly-sub-diagonal nonzeros.
func (m *Matrix) OffDiagNNZ() int { return len(m.RowInd) - m.N }

// Col returns the row indices of column j (including the diagonal entry).
// The returned slice aliases the matrix storage and must not be modified.
func (m *Matrix) Col(j int) []int { return m.RowInd[m.ColPtr[j]:m.ColPtr[j+1]] }

// ColVal returns the values of column j aligned with Col(j).
// It returns nil for a pattern-only matrix.
func (m *Matrix) ColVal(j int) []float64 {
	if m.Val == nil {
		return nil
	}
	return m.Val[m.ColPtr[j]:m.ColPtr[j+1]]
}

// Has reports whether the lower-triangle position (i, j), i >= j, is stored.
func (m *Matrix) Has(i, j int) bool {
	col := m.Col(j)
	k := sort.SearchInts(col, i)
	return k < len(col) && col[k] == i
}

// At returns the value at (i, j) of the full symmetric matrix, or 0 if the
// position is not stored. It panics on a pattern-only matrix.
func (m *Matrix) At(i, j int) float64 {
	if m.Val == nil {
		panic("sparse: At on pattern-only matrix")
	}
	if i < j {
		i, j = j, i
	}
	col := m.Col(j)
	k := sort.SearchInts(col, i)
	if k < len(col) && col[k] == i {
		return m.ColVal(j)[k]
	}
	return 0
}

// Validate checks the structural invariants of the matrix.
func (m *Matrix) Validate() error {
	if m.N < 0 {
		return errors.New("sparse: negative dimension")
	}
	if len(m.ColPtr) != m.N+1 {
		return fmt.Errorf("sparse: len(ColPtr)=%d, want %d", len(m.ColPtr), m.N+1)
	}
	if m.N > 0 && m.ColPtr[0] != 0 {
		return errors.New("sparse: ColPtr[0] != 0")
	}
	for j := 0; j < m.N; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		if lo > hi {
			return fmt.Errorf("sparse: ColPtr decreases at column %d", j)
		}
		if hi > len(m.RowInd) {
			return fmt.Errorf("sparse: ColPtr[%d]=%d exceeds nnz %d", j+1, hi, len(m.RowInd))
		}
		if lo == hi || m.RowInd[lo] != j {
			return fmt.Errorf("sparse: column %d missing diagonal entry", j)
		}
		for k := lo + 1; k < hi; k++ {
			if m.RowInd[k] <= m.RowInd[k-1] {
				return fmt.Errorf("sparse: rows not strictly increasing in column %d", j)
			}
			if m.RowInd[k] >= m.N {
				return fmt.Errorf("sparse: row index %d out of range in column %d", m.RowInd[k], j)
			}
		}
	}
	if m.ColPtr[m.N] != len(m.RowInd) {
		return fmt.Errorf("sparse: ColPtr[N]=%d, want nnz %d", m.ColPtr[m.N], len(m.RowInd))
	}
	if m.Val != nil && len(m.Val) != len(m.RowInd) {
		return fmt.Errorf("sparse: len(Val)=%d, want %d", len(m.Val), len(m.RowInd))
	}
	return nil
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{
		N:      m.N,
		ColPtr: append([]int(nil), m.ColPtr...),
		RowInd: append([]int(nil), m.RowInd...),
	}
	if m.Val != nil {
		c.Val = append([]float64(nil), m.Val...)
	}
	return c
}

// PatternEqual reports whether two matrices have identical dimension and
// lower-triangle sparsity patterns.
func PatternEqual(a, b *Matrix) bool {
	if a.N != b.N || len(a.RowInd) != len(b.RowInd) {
		return false
	}
	for j := 0; j <= a.N; j++ {
		if a.ColPtr[j] != b.ColPtr[j] {
			return false
		}
	}
	for k, r := range a.RowInd {
		if b.RowInd[k] != r {
			return false
		}
	}
	return true
}

// NewPattern builds a pattern-only symmetric matrix of dimension n from an
// undirected edge list. Self-loops and duplicate edges are tolerated; the
// diagonal is always present.
func NewPattern(n int, edges [][2]int) (*Matrix, error) {
	cols := make([][]int, n)
	for _, e := range edges {
		i, j := e[0], e[1]
		if i < 0 || i >= n || j < 0 || j >= n {
			return nil, fmt.Errorf("sparse: edge (%d,%d) out of range for n=%d", i, j, n)
		}
		if i == j {
			continue
		}
		if i < j {
			i, j = j, i
		}
		cols[j] = append(cols[j], i)
	}
	return fromColumnLists(n, cols, nil), nil
}

// FromTriplets builds a symmetric matrix from triplet (coordinate) data.
// Entries may appear in either triangle; duplicates are summed. Every
// diagonal entry is materialized (with value 0 if absent and v != nil).
func FromTriplets(n int, rows, colsIdx []int, v []float64) (*Matrix, error) {
	if len(rows) != len(colsIdx) {
		return nil, errors.New("sparse: rows/cols length mismatch")
	}
	if v != nil && len(v) != len(rows) {
		return nil, errors.New("sparse: values length mismatch")
	}
	type ent struct {
		r int
		v float64
	}
	cols := make([][]ent, n)
	for k := range rows {
		i, j := rows[k], colsIdx[k]
		if i < 0 || i >= n || j < 0 || j >= n {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of range for n=%d", i, j, n)
		}
		if i < j {
			i, j = j, i
		}
		var val float64
		if v != nil {
			val = v[k]
		}
		cols[j] = append(cols[j], ent{i, val})
	}
	colIdx := make([][]int, n)
	var colVal [][]float64
	if v != nil {
		colVal = make([][]float64, n)
	}
	for j := 0; j < n; j++ {
		sort.Slice(cols[j], func(a, b int) bool { return cols[j][a].r < cols[j][b].r })
		for _, e := range cols[j] {
			last := len(colIdx[j]) - 1
			if last >= 0 && colIdx[j][last] == e.r {
				if colVal != nil {
					colVal[j][last] += e.v
				}
				continue
			}
			colIdx[j] = append(colIdx[j], e.r)
			if colVal != nil {
				colVal[j] = append(colVal[j], e.v)
			}
		}
	}
	m := assembleWithDiagonal(n, colIdx, colVal, v != nil)
	return m, nil
}

// fromColumnLists assembles a matrix from per-column strictly-sub-diagonal
// row lists (unsorted, possibly with duplicates). Diagonals are added.
func fromColumnLists(n int, cols [][]int, vals [][]float64) *Matrix {
	colIdx := make([][]int, n)
	for j := 0; j < n; j++ {
		if len(cols[j]) == 0 {
			continue
		}
		c := append([]int(nil), cols[j]...)
		sort.Ints(c)
		out := c[:0]
		prev := -1
		for _, r := range c {
			if r != prev {
				out = append(out, r)
				prev = r
			}
		}
		colIdx[j] = out
	}
	return assembleWithDiagonal(n, colIdx, vals, vals != nil)
}

// assembleWithDiagonal builds the final CSC arrays, inserting diagonal
// entries where missing. colIdx[j] must be sorted, deduplicated row lists
// that may or may not include the diagonal.
func assembleWithDiagonal(n int, colIdx [][]int, colVal [][]float64, withVal bool) *Matrix {
	m := &Matrix{N: n, ColPtr: make([]int, n+1)}
	nnz := 0
	for j := 0; j < n; j++ {
		nnz += len(colIdx[j])
		if len(colIdx[j]) == 0 || colIdx[j][0] != j {
			nnz++
		}
	}
	m.RowInd = make([]int, 0, nnz)
	if withVal {
		m.Val = make([]float64, 0, nnz)
	}
	for j := 0; j < n; j++ {
		m.ColPtr[j] = len(m.RowInd)
		hasDiag := len(colIdx[j]) > 0 && colIdx[j][0] == j
		if !hasDiag {
			m.RowInd = append(m.RowInd, j)
			if withVal {
				m.Val = append(m.Val, 0)
			}
		}
		for k, r := range colIdx[j] {
			if r < j {
				panic(fmt.Sprintf("sparse: super-diagonal row %d in column %d", r, j))
			}
			m.RowInd = append(m.RowInd, r)
			if withVal {
				if colVal != nil && colVal[j] != nil {
					m.Val = append(m.Val, colVal[j][k])
				} else {
					m.Val = append(m.Val, 0)
				}
			}
		}
	}
	m.ColPtr[n] = len(m.RowInd)
	return m
}

// Adjacency returns the adjacency lists of the full symmetric pattern,
// excluding the diagonal. adj[i] is sorted.
func (m *Matrix) Adjacency() [][]int {
	deg := make([]int, m.N)
	for j := 0; j < m.N; j++ {
		for _, i := range m.Col(j)[1:] {
			deg[i]++
			deg[j]++
		}
	}
	adj := make([][]int, m.N)
	for i := range adj {
		adj[i] = make([]int, 0, deg[i])
	}
	for j := 0; j < m.N; j++ {
		for _, i := range m.Col(j)[1:] {
			adj[j] = append(adj[j], i)
			adj[i] = append(adj[i], j)
		}
	}
	for i := range adj {
		sort.Ints(adj[i])
	}
	return adj
}

// Degrees returns the number of off-diagonal neighbours of each node in the
// full symmetric pattern.
func (m *Matrix) Degrees() []int {
	deg := make([]int, m.N)
	for j := 0; j < m.N; j++ {
		for _, i := range m.Col(j)[1:] {
			deg[i]++
			deg[j]++
		}
	}
	return deg
}

// Permute returns B = A(order, order): the symmetric permutation of m where
// order[k] gives the original index of the k-th row/column of the result.
// order must be a permutation of 0..N-1. A column of m without its
// diagonal entry is an error.
//
// Entries are bucketed by new row and the rows swept in increasing order,
// each entry appended to its new column: every column comes out sorted,
// in time linear in the matrix.
func (m *Matrix) Permute(order []int) (*Matrix, error) {
	n, nnz := m.N, len(m.RowInd)
	if len(order) != n {
		return nil, fmt.Errorf("sparse: permutation length %d, want %d", len(order), n)
	}
	scratch := make([]int, 2*n+1+2*nnz)
	inv, rowEnd, bucket := scratch[:n], scratch[n:2*n+1], scratch[2*n+1:]
	for i := range inv {
		inv[i] = -1
	}
	for newIdx, old := range order {
		if old < 0 || old >= n || inv[old] != -1 {
			return nil, errors.New("sparse: order is not a permutation")
		}
		inv[old] = newIdx
	}
	p := &Matrix{N: n, ColPtr: make([]int, n+1), RowInd: make([]int, nnz)}
	if m.Val != nil {
		p.Val = make([]float64, nnz)
	}
	for j := 0; j < n; j++ {
		for _, i := range m.Col(j) {
			rowEnd[max(inv[i], inv[j])+1]++
			p.ColPtr[min(inv[i], inv[j])+1]++
		}
	}
	for r := 0; r < n; r++ {
		rowEnd[r+1] += rowEnd[r]
		p.ColPtr[r+1] += p.ColPtr[r]
	}
	// bucket holds (new column, source position) pairs grouped by new row;
	// rowEnd[r] runs from the start of row r's group to its end.
	for j := 0; j < n; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			ni, nj := inv[m.RowInd[k]], inv[j]
			at := 2 * rowEnd[max(ni, nj)]
			rowEnd[max(ni, nj)]++
			bucket[at], bucket[at+1] = min(ni, nj), k
		}
	}
	next := inv // the inverse has served; reuse it as the column cursors
	copy(next, p.ColPtr)
	at := 0
	for r := 0; r < n; r++ {
		for ; at < 2*rowEnd[r]; at += 2 {
			q := next[bucket[at]]
			next[bucket[at]]++
			p.RowInd[q] = r
			if p.Val != nil {
				p.Val[q] = m.Val[bucket[at+1]]
			}
		}
	}
	// No row of a column lies above its diagonal, so the diagonal, where
	// present, came first.
	for c := 0; c < n; c++ {
		if p.ColPtr[c] == p.ColPtr[c+1] || p.RowInd[p.ColPtr[c]] != c {
			return nil, fmt.Errorf("sparse: column %d missing diagonal entry", order[c])
		}
	}
	return p, nil
}

// SetLaplacianValues fills in numerical values that make the matrix
// symmetric positive definite: each off-diagonal entry becomes -1 and each
// diagonal entry becomes the node degree plus shift (shift > 0 gives strict
// diagonal dominance). This mirrors the graph-Laplacian origin of the
// paper's finite-element and network test matrices.
func (m *Matrix) SetLaplacianValues(shift float64) {
	deg := m.Degrees()
	m.Val = make([]float64, len(m.RowInd))
	for j := 0; j < m.N; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		m.Val[lo] = float64(deg[j]) + shift
		for k := lo + 1; k < hi; k++ {
			m.Val[k] = -1
		}
	}
}

// Dense expands the full symmetric matrix into a dense representation.
// Intended for tests and small examples only.
func (m *Matrix) Dense() [][]float64 {
	if m.Val == nil {
		panic("sparse: Dense on pattern-only matrix")
	}
	d := make([][]float64, m.N)
	for i := range d {
		d[i] = make([]float64, m.N)
	}
	for j := 0; j < m.N; j++ {
		cj := m.Col(j)
		vj := m.ColVal(j)
		for k, i := range cj {
			d[i][j] = vj[k]
			d[j][i] = vj[k]
		}
	}
	return d
}

// String summarizes the matrix.
func (m *Matrix) String() string {
	return fmt.Sprintf("sparse.Matrix{n=%d, nnz(lower)=%d}", m.N, m.NNZ())
}
