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
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// MaxN is the largest dimension a Matrix holds: its row indices are int32.
const MaxN = math.MaxInt32

// checkDim rejects a dimension whose row indices int32 cannot hold.
func checkDim(n int) error {
	if n < 0 || n > MaxN {
		return fmt.Errorf("sparse: dimension %d outside [0, %d]", n, MaxN)
	}
	return nil
}

// Matrix is a sparse symmetric matrix stored as its lower triangle
// (including the diagonal) in compressed sparse column form.
//
// Invariants (checked by Validate):
//   - 0 <= N <= MaxN, so every row index fits RowInd's int32.
//   - len(ColPtr) == N+1, ColPtr[0] == 0, ColPtr monotone non-decreasing.
//   - Row indices within each column are strictly increasing.
//   - The first entry of column j is the diagonal element j.
//   - If Val is non-nil, len(Val) == NNZ().
type Matrix struct {
	N      int
	ColPtr []int
	RowInd []int32
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
func (m *Matrix) Col(j int) []int32 { return m.RowInd[m.ColPtr[j]:m.ColPtr[j+1]] }

// ColVal returns the values of column j aligned with Col(j).
// It returns nil for a pattern-only matrix.
func (m *Matrix) ColVal(j int) []float64 {
	if m.Val == nil {
		return nil
	}
	return m.Val[m.ColPtr[j]:m.ColPtr[j+1]]
}

// has reports whether the lower-triangle position (i, j), i >= j, is stored.
func (m *Matrix) has(i, j int) bool {
	_, ok := m.find(i, j)
	return ok
}

// find returns the storage position of (i, j), i >= j, and whether it is
// stored; a row outside [0, N) is not.
func (m *Matrix) find(i, j int) (int, bool) {
	if i < 0 || i >= m.N {
		return 0, false
	}
	k, ok := slices.BinarySearch(m.Col(j), int32(i))
	return m.ColPtr[j] + k, ok
}

// Validate checks the structural invariants of the matrix.
func (m *Matrix) Validate() error {
	if err := checkDim(m.N); err != nil {
		return err
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
		if lo == hi || int(m.RowInd[lo]) != j {
			return fmt.Errorf("sparse: column %d missing diagonal entry", j)
		}
		for k := lo + 1; k < hi; k++ {
			if m.RowInd[k] <= m.RowInd[k-1] {
				return fmt.Errorf("sparse: rows not strictly increasing in column %d", j)
			}
			if int(m.RowInd[k]) >= m.N {
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
		RowInd: append([]int32(nil), m.RowInd...),
	}
	if m.Val != nil {
		c.Val = append([]float64(nil), m.Val...)
	}
	return c
}

// PatternEqual reports whether two matrices have identical dimension and
// lower-triangle sparsity patterns.
func PatternEqual(a, b *Matrix) bool {
	return a.N == b.N && slices.Equal(a.ColPtr, b.ColPtr) && slices.Equal(a.RowInd, b.RowInd)
}

// NewPattern builds a pattern-only symmetric matrix of dimension n from an
// undirected edge list. Self-loops and duplicate edges are tolerated; the
// diagonal is always present.
func NewPattern(n int, edges [][2]int) (*Matrix, error) {
	return assemble(n, len(edges), func(k int) (int, int) { return edges[k][0], edges[k][1] }, nil)
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
	return assemble(n, len(rows), func(k int) (int, int) { return rows[k], colsIdx[k] }, v)
}

// assemble builds the lower triangle of the n × n symmetric matrix holding
// the count entries at(k), each in either triangle, and every diagonal.
// Duplicates merge, their values v[k] summed in input order; v == nil
// makes a pattern-only matrix. A dimension past MaxN is rejected before
// anything n-sized is allocated.
func assemble(n, count int, at func(k int) (i, j int), v []float64) (*Matrix, error) {
	if err := checkDim(n); err != nil {
		return nil, err
	}
	type ent struct {
		r int32
		v float64
	}
	cols := make([][]ent, n)
	for k := range count {
		i, j := at(k)
		if i < 0 || i >= n || j < 0 || j >= n {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of range for n=%d", i, j, n)
		}
		e := ent{r: int32(max(i, j))}
		if v != nil {
			e.v = v[k]
		}
		cols[min(i, j)] = append(cols[min(i, j)], e)
	}
	nnz := 0
	for j, c := range cols {
		slices.SortStableFunc(c, func(a, b ent) int { return cmp.Compare(a.r, b.r) })
		out := c[:0]
		for _, e := range c {
			if last := len(out) - 1; last >= 0 && out[last].r == e.r {
				out[last].v += e.v
				continue
			}
			out = append(out, e)
		}
		cols[j] = out
		nnz += len(out)
		if len(out) == 0 || out[0].r != int32(j) {
			nnz++
		}
	}
	m := &Matrix{N: n, ColPtr: make([]int, n+1), RowInd: make([]int32, 0, nnz)}
	if v != nil {
		m.Val = make([]float64, 0, nnz)
	}
	for j, c := range cols {
		if len(c) == 0 || c[0].r != int32(j) {
			m.RowInd = append(m.RowInd, int32(j))
			if v != nil {
				m.Val = append(m.Val, 0)
			}
		}
		for _, e := range c {
			m.RowInd = append(m.RowInd, e.r)
			if v != nil {
				m.Val = append(m.Val, e.v)
			}
		}
		m.ColPtr[j+1] = len(m.RowInd)
	}
	return m, nil
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
			adj[j] = append(adj[j], int(i))
			adj[i] = append(adj[i], j)
		}
	}
	for i := range adj {
		sort.Ints(adj[i])
	}
	return adj
}

// degrees returns the number of off-diagonal neighbours of each node in the
// full symmetric pattern.
func (m *Matrix) degrees() []int {
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
// order must be a permutation of 0..N-1. A dimension past MaxN, a row
// index outside [0, N) and a column of m without its diagonal entry are
// errors.
//
// Entries are bucketed by new row and the rows swept in increasing order,
// each entry appended to its new column: every column comes out sorted,
// in time linear in the matrix.
func (m *Matrix) Permute(order []int) (*Matrix, error) {
	n, nnz := m.N, len(m.RowInd)
	if err := checkDim(n); err != nil {
		return nil, err
	}
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
	p := &Matrix{N: n, ColPtr: make([]int, n+1), RowInd: make([]int32, nnz)}
	if m.Val != nil {
		p.Val = make([]float64, nnz)
	}
	for j := 0; j < n; j++ {
		for _, i := range m.Col(j) {
			if i < 0 || int(i) >= n {
				return nil, fmt.Errorf("sparse: row index %d out of range in column %d", i, j)
			}
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
			p.RowInd[q] = int32(r)
			if p.Val != nil {
				p.Val[q] = m.Val[bucket[at+1]]
			}
		}
	}
	// No row of a column lies above its diagonal, so the diagonal, where
	// present, came first.
	for c := 0; c < n; c++ {
		if p.ColPtr[c] == p.ColPtr[c+1] || int(p.RowInd[p.ColPtr[c]]) != c {
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
	deg := m.degrees()
	m.Val = make([]float64, len(m.RowInd))
	for j := 0; j < m.N; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		m.Val[lo] = float64(deg[j]) + shift
		for k := lo + 1; k < hi; k++ {
			m.Val[k] = -1
		}
	}
}

// String summarizes the matrix.
func (m *Matrix) String() string {
	return fmt.Sprintf("sparse.Matrix{n=%d, nnz(lower)=%d}", m.N, m.NNZ())
}
