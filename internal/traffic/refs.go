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
// (the contigtotal strategy).
func ColumnRefs(ops *model.Ops) [][]ColRef {
	f, ri := ops.F, ops.F.Rows()
	refs := make([][]ColRef, f.N)
	arena := make([]ColRef, f.NNZ()-f.N) // one reference per off-diagonal element
	for j := 0; j < f.N; j++ {
		e, m := ri.Ptr[j], int(ri.Ptr[j+1]-ri.Ptr[j])
		if m == 0 {
			continue
		}
		rj := arena[:m:m]
		arena = arena[m:]
		// The suffix of column k from (j, k) down is the reference set:
		// the tail of k's run in row j.
		for x, t := ri.RunPtr[j], 0; x < ri.RunPtr[j+1]; x++ {
			for range ri.RunLen[x] {
				rj[t] = ColRef{Col: ri.Cols[e], Vol: int64(ri.Tail[x])}
				e, t = e+1, t+1
			}
		}
		refs[j] = rj
	}
	return refs
}
