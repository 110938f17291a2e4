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
// model. Each list is by increasing Col (the order of the row index).
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
		// The suffix of column k from (j, k) down is the reference set:
		// the tail of k's run in row j.
		rj := arena[:0]
		for x := ri.RunPtr[j]; x < ri.RunPtr[j+1]; x++ {
			last, vol := ri.Last[x], int64(ri.Tail[x])
			for k := last - int32(ri.RunLen[x]) + 1; k <= last; k++ {
				rj = append(rj, ColRef{Col: k, Vol: vol})
			}
		}
		if len(rj) > 0 {
			refs[j], arena = rj[:len(rj):len(rj)], arena[len(rj):]
		}
	}
	return refs
}
