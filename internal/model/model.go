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
	// rows is the factor's row index: its strict lower triangle by rows,
	// in supernode runs.
	rows *symbolic.RowIndex
}

// NewOps prepares the operation enumerator for a factor structure; its
// rows are the factor's own row index, one copy per factor.
func NewOps(f *symbolic.Factor) *Ops { return &Ops{F: f, rows: f.Rows()} }

// RowCols returns the columns k < r with L[r,k] != 0 (the factor's row
// structure), in increasing order. The slice aliases internal storage.
func (o *Ops) RowCols(r int) []int32 { return o.rows.Cols[o.rows.Ptr[r]:o.rows.Ptr[r+1]] }

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
	f, ri := o.F, o.rows
	tgt := make([]int32, f.N)
	for j := 0; j < f.N; j++ {
		base := f.ColPtr[j]
		for t, i := range f.Col(j) {
			tgt[i] = int32(base + t)
		}
		// x is the next run; left counts the entries the current one has
		// left, all with its tail.
		x, left, tail := ri.RunPtr[j], uint8(0), int32(0)
		for _, k := range o.RowCols(j) {
			if left == 0 {
				left, tail = ri.RunLen[x], ri.Tail[x]
				x++
			}
			left--
			hi := int32(f.ColPtr[k+1])
			fn(Run{Col: j, Lo: hi - tail, Hi: hi, Tgt: tgt})
		}
	}
}

// UpdateCounts returns, for every factor nonzero position, the number of
// pair updates it receives.
//
// The sources of target column j are taken run by run (symbolic.RowIndex):
// the sources of a run hold the same rows from row j down, so the run
// updates each of them once per source and one walk of those rows adds
// its length.
func (o *Ops) UpdateCounts() []int32 {
	f, ri := o.F, o.rows
	counts := make([]int32, f.NNZ())
	tgt := make([]int32, f.N) // tgt[i]: position of (i, j) in the current column j
	for j := 0; j < f.N; j++ {
		base := f.ColPtr[j]
		for t, i := range f.Col(j) {
			tgt[i] = int32(base + t)
		}
		e := ri.Ptr[j]
		for x := ri.RunPtr[j]; x < ri.RunPtr[j+1]; x++ {
			hi := f.ColPtr[ri.Cols[e]+1]
			for _, i := range f.RowInd[hi-int(ri.Tail[x]) : hi] {
				counts[tgt[i]] += int32(ri.RunLen[x])
			}
			e += int32(ri.RunLen[x])
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
