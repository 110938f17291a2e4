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
		for x := ri.RunPtr[j]; x < ri.RunPtr[j+1]; x++ {
			last, tail := ri.Last[x], ri.Tail[x]
			for k := last - int32(ri.RunLen[x]) + 1; k <= last; k++ {
				hi := int32(f.ColPtr[k+1])
				fn(Run{Col: j, Lo: hi - tail, Hi: hi, Tgt: tgt})
			}
		}
	}
}

// updateCounts returns, for every factor nonzero position, the number of
// pair updates it receives: at most one per column before its own.
//
// The sources of target column j are taken run by run (symbolic.RowIndex):
// the sources of a run hold the same rows from row j down, so the run
// updates each of them once per source and one walk of those rows adds
// its length.
func (o *Ops) updateCounts() []uint32 {
	f, ri := o.F, o.rows
	counts := make([]uint32, f.NNZ())
	tgt := make([]int32, f.N) // tgt[i]: position of (i, j) in the current column j
	for j := 0; j < f.N; j++ {
		base := f.ColPtr[j]
		for t, i := range f.Col(j) {
			tgt[i] = int32(base + t)
		}
		for x := ri.RunPtr[j]; x < ri.RunPtr[j+1]; x++ {
			hi := f.ColPtr[ri.Last[x]+1]
			for _, i := range f.RowInd[hi-int(ri.Tail[x]) : hi] {
				counts[tgt[i]] += uint32(ri.RunLen[x])
			}
		}
	}
	return counts
}

// Work returns the work of every factor element under the paper's model:
// 2 units per pair update plus 1 unit for the diagonal update. An element
// receives c ≤ n − 1 < 2³¹ updates, so 2c + 1 fits four bytes; the counts
// of updateCounts become the work in place, one array for both.
func Work(o *Ops) []uint32 {
	w := o.updateCounts()
	for p, c := range w {
		w[p] = 2*c + 1
	}
	return w
}

// ElementWork is Work widened to int64, for the benchmark adapter, the one
// caller that still names the wide vector.
func ElementWork(o *Ops) []int64 {
	w := Work(o)
	wide := make([]int64, len(w))
	for p, v := range w {
		wide[p] = int64(v)
	}
	return wide
}

// ColumnWork sums element work per column.
func ColumnWork(f *symbolic.Factor, elemWork []uint32) []int64 {
	w := make([]int64, f.N)
	for j := 0; j < f.N; j++ {
		var s int64
		for p := f.ColPtr[j]; p < f.ColPtr[j+1]; p++ {
			s += int64(elemWork[p])
		}
		w[j] = s
	}
	return w
}

// TotalWork sums all element work, or any other per-item count.
func TotalWork[T int64 | uint32](elemWork []T) int64 {
	var s int64
	for _, w := range elemWork {
		s += int64(w)
	}
	return s
}
