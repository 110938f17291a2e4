package traffic

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sched"
)

// refIncremental is Incremental as it was before groups: the same reader
// count table, built by the update walk, with a Move that reassigns any
// list of elements and finds each moved target's sources by merging the
// row structures of its row and column. It is the oracle the group
// counter's totals and readers (count > 0) are held to, and nothing else
// calls it.
type refIncremental struct {
	ops   *model.Ops
	s     *sched.Schedule
	colOf []int32
	count []int32 // count[e*P+p]
	total int64
}

func newRefIncremental(ops *model.Ops, s *sched.Schedule) *refIncremental {
	nnz := ops.F.NNZ()
	if len(s.ElemProc) != nnz {
		panic(fmt.Sprintf("traffic: schedule covers %d elements, factor has %d", len(s.ElemProc), nnz))
	}
	sched.MustProcs("traffic", s.P)
	t := &refIncremental{
		ops:   ops,
		s:     s,
		colOf: ops.F.ColIndex(),
		count: make([]int32, nnz*s.P),
	}
	owner, rowInd := s.ElemProc, ops.F.RowInd
	ops.ForEachRun(func(r model.Run) {
		for q := r.Lo; q < r.Hi; q++ {
			proc := owner[r.Tgt[rowInd[q]]]
			t.read(q, proc)
			t.read(r.Lo, proc)
		}
	})
	forEachScale(ops, func(tgt, diag int32) {
		t.read(diag, owner[tgt])
	})
	return t
}

// read adds one read of elem by a target that proc owns.
func (t *refIncremental) read(elem, proc int32) {
	c := &t.count[int(elem)*t.s.P+int(proc)]
	if *c == 0 && t.s.ElemProc[elem] != proc {
		t.total++
	}
	*c++
}

// unread removes one read of elem by a target that proc owns.
func (t *refIncremental) unread(elem, proc int32) {
	c := &t.count[int(elem)*t.s.P+int(proc)]
	*c--
	if *c == 0 && t.s.ElemProc[elem] != proc {
		t.total--
	}
}

// Move reassigns the factor elements at positions elems to processor dst
// and returns the new total. Elements dst already owns are skipped. The
// cost per moved element (i, j) is the merge of the row structures of i
// and j that finds its sources, plus the diagonal of column j.
func (t *refIncremental) Move(elems []int32, dst int32) int64 {
	p := t.s.P
	if dst < 0 || int(dst) >= p {
		panic(fmt.Sprintf("traffic: move to processor %d of %d", dst, p))
	}
	f, owner := t.ops.F, t.s.ElemProc
	for _, q := range elems {
		old := owner[q]
		if old == dst {
			continue
		}
		i, j := int(f.RowInd[q]), int(t.colOf[q])
		ci, pi := t.ops.RowCols(i), t.ops.RowPositions(i)
		cj, pj := t.ops.RowCols(j), t.ops.RowPositions(j)
		for a, b := 0, 0; a < len(ci) && b < len(cj); {
			switch {
			case ci[a] < cj[b]:
				a++
			case ci[a] > cj[b]:
				b++
			default:
				t.unread(pi[a], old)
				t.read(pi[a], dst)
				t.unread(pj[b], old)
				t.read(pj[b], dst)
				a++
				b++
			}
		}
		diag := int32(f.ColPtr[j])
		t.unread(diag, old)
		t.read(diag, dst)
		row := t.count[int(q)*p : int(q)*p+p]
		if row[old] > 0 {
			t.total++
		}
		if row[dst] > 0 {
			t.total--
		}
		owner[q] = dst
	}
	return t.total
}
