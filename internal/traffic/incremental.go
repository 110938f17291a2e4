package traffic

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sched"
)

// Incremental is Simulate's total kept exact under element moves, for
// searches that change the owner of a few elements per trial (the rect2d
// descent, refine's traffic objective). It is built once from a schedule
// at about the cost of one Simulate; Move then reassigns a set of
// elements and returns the new total, and Total() always equals
// Simulate(ops, s).Total for the schedule's current ElemProc. A rejected
// trial is a Move back.
//
// The state is one reader count per (element, processor): count[e][p] is
// the number of reads of e by the updates and scales of targets p owns,
// so the total is the number of pairs with count[e][p] > 0 and p not the
// owner of e. When one target changes owner only the counts of its own
// sources change, and when an element changes owner only its own row of
// the table is read differently; that is all Move touches.
//
// The table holds 4·nnz(L)·P bytes (1.1 MB for LAP30 at P = 16, 144 MB
// for n = 14 400 at P = 64), so it is meant to live for one search and
// be dropped with it.
type Incremental struct {
	ops   *model.Ops
	s     *sched.Schedule
	colOf []int32
	count []int32 // count[e*P+p]
	total int64
}

// NewIncremental builds the oracle for schedule s over ops, which must be
// built over the symbolic factor the schedule was computed from. The
// oracle keeps s and writes s.ElemProc on every Move; s.Work and
// s.UnitProc stay the caller's to maintain.
func NewIncremental(ops *model.Ops, s *sched.Schedule) *Incremental {
	nnz := ops.F.NNZ()
	if len(s.ElemProc) != nnz {
		panic(fmt.Sprintf("traffic: schedule covers %d elements, factor has %d", len(s.ElemProc), nnz))
	}
	sched.MustProcs("traffic", s.P)
	t := &Incremental{
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
	ops.ForEachScale(func(tgt, diag int32) {
		t.read(diag, owner[tgt])
	})
	return t
}

// Total returns the current data traffic of the schedule.
func (t *Incremental) Total() int64 { return t.total }

// read adds one read of elem by a target that proc owns.
func (t *Incremental) read(elem, proc int32) {
	c := &t.count[int(elem)*t.s.P+int(proc)]
	if *c == 0 && t.s.ElemProc[elem] != proc {
		t.total++
	}
	*c++
}

// unread removes one read of elem by a target that proc owns.
func (t *Incremental) unread(elem, proc int32) {
	c := &t.count[int(elem)*t.s.P+int(proc)]
	*c--
	if *c == 0 && t.s.ElemProc[elem] != proc {
		t.total--
	}
}

// Move reassigns the factor elements at positions elems to processor dst
// and returns the new total. Elements dst already owns are skipped, so a
// repeated position or a move to the current owner changes nothing. The
// cost per moved element (i, j) is the merge of the row structures of i
// and j that finds its sources — the positions RowPositions gives for the
// columns RowCols(i) ∩ RowCols(j), plus the diagonal of column j.
func (t *Incremental) Move(elems []int32, dst int32) int64 {
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
		// The target's reads move with it, old owner to dst.
		i, j := f.RowInd[q], int(t.colOf[q])
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
		// The element's own readers stay; which of them is local flips.
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
