// Package model defines the computational model of sparse Cholesky
// factorization used throughout the reproduction: the enumeration of
// element-level update operations (Figure 1 of the paper) and the work
// model of Section 4.
//
// Work model, quoted from the paper: "The computation cost of updating an
// element of the matrix by a pair of off-diagonal elements is assumed to be
// two units; updating the element by the diagonal element is assumed to
// cost one unit."
//
// Concretely, for factor element (i, j) with i >= j:
//
//	work(i,j) = 2 * |{k < j : L[i,k] != 0 and L[j,k] != 0}| + 1
//
// where the +1 is the final update by the diagonal (the scale for
// off-diagonal elements, the square root for the diagonal itself).
package model

import "repro/internal/symbolic"

// Ops provides efficient enumeration of the element-level operations of a
// factorization over the symbolic structure f.
type Ops struct {
	F *symbolic.Factor
	// Row r of the factor's strict lower triangle is the slice
	// [rowPtr[r], rowPtr[r+1]) of two parallel arrays: rowCols lists the
	// columns k < r with L[r,k] != 0, increasing, and rowPos the factor
	// nonzero position of each (r, k).
	rowPtr, rowCols, rowPos []int32
}

// NewOps prepares the operation enumerator for a factor structure; its
// rows are views of the factor's own row index, one copy per factor.
func NewOps(f *symbolic.Factor) *Ops {
	r := f.Rows()
	return &Ops{F: f, rowPtr: r.Ptr, rowCols: r.Cols, rowPos: r.Pos}
}

// RowCols returns the columns k < r with L[r,k] != 0 (the factor's row
// structure), in increasing order. The slice aliases internal storage.
func (o *Ops) RowCols(r int) []int32 { return o.rowCols[o.rowPtr[r]:o.rowPtr[r+1]] }

// RowPositions returns, parallel to RowCols(r), the factor nonzero
// positions of row r's off-diagonal entries: RowPositions(r)[t] is the
// position of element (r, RowCols(r)[t]) in F.RowInd. The slice aliases
// internal storage.
func (o *Ops) RowPositions(r int) []int32 { return o.rowPos[o.rowPtr[r]:o.rowPtr[r+1]] }

// Run is every pair update one source column k makes to one target
// column j (k in the row structure of j): the source positions [Lo, Hi)
// are the elements (i, k) of column k with i >= j, Lo being (j, k)
// itself. The update at source position q is
// L[Tgt[F.RowInd[q]]] -= L[q] * L[Lo].
type Run struct {
	// Col is the target column j.
	Col int
	// Lo, Hi bound the source positions in column k; Hi is ColPtr[k+1].
	Lo, Hi int32
	// Tgt scatters column j's structure: Tgt[i] is the position of
	// (i, j) for every row i of struct(j). The fill theorem guarantees
	// every row of the run is one of them. Entries of other rows are
	// stale; the slice is reused from run to run.
	Tgt []int32
}

// ForEachRun calls fn once per (target column, source column) pair, target
// columns increasing and, within one target, source columns increasing.
// It is the enumeration every element-level walk sits on: the consumer
// loops over [r.Lo, r.Hi) itself, so the cost of the callback is paid per
// factor nonzero, not per update.
func (o *Ops) ForEachRun(fn func(r Run)) {
	f := o.F
	tgt := make([]int32, f.N)
	for j := 0; j < f.N; j++ {
		base := f.ColPtr[j]
		for t, i := range f.Col(j) {
			tgt[i] = int32(base + t)
		}
		pos := o.RowPositions(j)
		for t, k := range o.RowCols(j) {
			fn(Run{Col: j, Lo: pos[t], Hi: int32(f.ColPtr[k+1]), Tgt: tgt})
		}
	}
}

// UpdateCounts returns, for every factor nonzero position, the number of
// pair updates it receives.
//
// The sources of target column j are taken in passes: a run of
// consecutive sources of row j, each the elimination-tree parent of the
// one before and all holding the same number of rows from row j down,
// holds the same rows (a column's rows below its diagonal are all in its
// parent's), so the run updates each of them once per source and one walk
// of those rows adds its length. This is numeric.passWidth's rule without
// its cap of four.
func (o *Ops) UpdateCounts() []int32 {
	f := o.F
	counts := make([]int32, f.NNZ())
	tgt := make([]int32, f.N) // tgt[i]: position of (i, j) in the current column j
	for j := 0; j < f.N; j++ {
		base := f.ColPtr[j]
		for t, i := range f.Col(j) {
			tgt[i] = int32(base + t)
		}
		cols, pos := o.RowCols(j), o.RowPositions(j)
		for t := 0; t < len(cols); {
			lo, hi := int(pos[t]), f.ColPtr[cols[t]+1]
			m := t + 1
			for m < len(cols) && f.Parent[cols[m-1]] == int(cols[m]) && f.ColPtr[cols[m]+1]-int(pos[m]) == hi-lo {
				m++
			}
			for _, i := range f.RowInd[lo:hi] {
				counts[tgt[i]] += int32(m - t)
			}
			t = m
		}
	}
	return counts
}

// ElementWork returns the work of every factor element under the paper's
// model: 2 units per pair update plus 1 unit for the diagonal update.
func ElementWork(o *Ops) []int64 {
	counts := o.UpdateCounts()
	w := make([]int64, len(counts))
	for p, c := range counts {
		w[p] = 2*int64(c) + 1
	}
	return w
}

// ColumnWork sums element work per column.
func ColumnWork(f *symbolic.Factor, elemWork []int64) []int64 {
	w := make([]int64, f.N)
	for j := 0; j < f.N; j++ {
		var s int64
		for p := f.ColPtr[j]; p < f.ColPtr[j+1]; p++ {
			s += elemWork[p]
		}
		w[j] = s
	}
	return w
}

// TotalWork sums all element work, or any other per-item count.
func TotalWork(elemWork []int64) int64 {
	var s int64
	for _, w := range elemWork {
		s += w
	}
	return s
}

// CountUpdates returns the total number of pair-update operations,
// sum over columns k of c_k*(c_k+1)/2 where c_k is the number of
// sub-diagonal nonzeros of column k. Used to cross-check enumeration.
func CountUpdates(f *symbolic.Factor) int64 {
	var u int64
	for k := 0; k < f.N; k++ {
		c := int64(f.ColLen(k) - 1)
		u += c * (c + 1) / 2
	}
	return u
}

// SolveElementWork returns the per-element work of the two triangular
// solves (Lu = b and Lᵀv = u, the paper's step 4). Under the same cost
// convention as the factorization model, every off-diagonal element
// performs one multiply-subtract in each sweep (2 units each, 4 total)
// and every diagonal element one division per sweep (1 unit each,
// 2 total). The paper's Section 5 points out that scheduling the solves
// adds flexibility for load balancing; this model makes that measurable.
func SolveElementWork(f *symbolic.Factor) []int64 {
	w := make([]int64, f.NNZ())
	for j := 0; j < f.N; j++ {
		base := f.ColPtr[j]
		w[base] = 2
		for q := base + 1; q < f.ColPtr[j+1]; q++ {
			w[q] = 4
		}
	}
	return w
}
