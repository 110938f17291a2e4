package model

// Update is one element-level operation L[Tgt] -= L[SrcI]*L[SrcJ], where
// the fields are indices into the factor's nonzero array (positions in
// F.RowInd). For diagonal targets SrcI == SrcJ.
type Update struct {
	Tgt, SrcI, SrcJ int32
}

// ForEachUpdate calls fn for every pair-update operation of the
// factorization: target columns in increasing order, within a target
// column its source columns in increasing order, within a source column
// rows in increasing order. For target element (i, j) updated from column
// k, SrcI is the position of (i, k), SrcJ the position of (j, k), and Tgt
// the position of (i, j).
//
// It is ForEachRun with the per-element loop supplied — the reference
// enumeration of the tests; production code loops over the runs itself.
func (o *Ops) ForEachUpdate(fn func(u Update)) {
	rowInd := o.F.RowInd
	o.ForEachRun(func(r Run) {
		for q := r.Lo; q < r.Hi; q++ {
			fn(Update{Tgt: r.Tgt[rowInd[q]], SrcI: q, SrcJ: r.Lo})
		}
	})
}
