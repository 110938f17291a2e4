package traffic

import "repro/internal/model"

// ColRef is one column-level source reference of the fetch attribution:
// target column Tgt (the index into the ColumnRefs result) reads the
// trailing Vol elements of source column Col — every factor element
// (i, Col) with i >= Tgt, which is exactly the set of sources the
// owner-computes updates of column Tgt touch in column Col (Figure 1's
// pair updates: sources (i, Col) and (Tgt, Col) for all i in
// struct(Col), i >= Tgt).
type ColRef struct {
	Col int32
	Vol int64
}

// ColumnRefs returns, for every target column j, its source references:
// one ColRef per column k < j with L[j,k] != 0, carrying the fetch
// volume Vol = |{i in struct(k) : i >= j}| that a processor owning j but
// not k must transfer under the paper's fetch-on-first-use traffic
// model. Each list is by increasing Col (the order of Ops.RowCols).
//
// Because the reference sets of two targets j1 < j2 in the same source
// column are nested suffixes (suffix(j1) contains suffix(j2)), the
// deduplicated traffic a processor q != owner(k) is charged for column k
// is the Vol of q's smallest target column in struct(k). Summing that
// over source columns and processors reproduces Simulate's total for any
// column-granular schedule; for contiguous column blocks it is the cut
// cost oracle of the total-communication-optimal split
// (strategy.ContiguousSplitTotal).
func ColumnRefs(ops *model.Ops) [][]ColRef {
	f := ops.F
	refs := make([][]ColRef, f.N)
	arena := make([]ColRef, f.NNZ()-f.N) // one reference per off-diagonal element
	for j := 0; j < f.N; j++ {
		cols := ops.RowCols(j)
		pos := ops.RowPositions(j)
		if len(cols) == 0 {
			continue
		}
		rj := arena[:len(cols):len(cols)]
		arena = arena[len(cols):]
		for t, k := range cols {
			// pos[t] is the position of (j, k) in column k; the suffix
			// from there to the end of the column is the reference set.
			rj[t] = ColRef{Col: k, Vol: int64(f.ColPtr[k+1]) - int64(pos[t])}
		}
		refs[j] = rj
	}
	return refs
}
