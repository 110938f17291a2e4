package traffic

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/sched"
)

// Incremental is Simulate's total kept exact under group moves, for the
// searches that reassign one owner-uniform group of elements per trial
// (the rect2d descent's tiles, refine's columns or unit blocks): Move
// returns the new total, which always equals Simulate(s).Total for the
// schedule s with every group on the owner its moves have given it, and a
// rejected trial is a Move back.
//
// The state is one reader count per (element, processor), filled from
// the groups' records, each group's under its owner; the total is the
// number of pairs with a count and a processor other than the element's
// owner. A move shifts its group's reads from the old owner to the new
// one and flips which of its elements' readers are local; that is all it
// touches. The counter keeps its own owner of every element, moved with
// its group, and never writes the schedule. The table holds 4·nnz(L)·P
// bytes (1.1 MB for LAP30 at P = 16, 144 MB for n = 14 400 at P = 64), so
// it is meant to live for one search.
type Incremental struct {
	p     int
	g     *Groups
	count []int32 // count[e*P+p]
	total int64
	owner []int32 // owner[g] is group g's processor, -1 when it holds no element
	elem  []int32 // elem[q] is element q's processor
}

// Groups is a partition of a factor's elements into boxes, each box's
// reads stored once as records: runs of positions [lo, hi) the box reads.
// Traffic is a set — once a processor has fetched an element, using it
// again costs nothing — so a record says which positions a box reads, not
// how often. Records come from pairs of column segments, not from the
// updates: for a source column k, let A be k's positions in the box's
// columns and B its positions in the box's rows. The box's targets from k
// are (i, j) for j in A, i in B, i >= j, each reading (i, k) and (j, k).
// When A is a prefix of B, the box reads B, one record; when A lies before
// B, it reads A and B, two. The scales read the diagonal of every column
// the box holds a position of, one record per column. A box reads each
// position in at most one record.
//
// Groups depend on structure only, not on owners, so one serves every
// Incremental over a schedule whose owners are uniform on its boxes; it
// is read-only after NewGroups.
type Groups struct {
	nnz int
	// Group g holds the elements elems[elemPtr[g]:elemPtr[g+1]] and reads
	// reads[readPtr[g]:readPtr[g+1]].
	elemPtr, readPtr []int32
	elems, reads     []record
}

// Box is one group: the factor elements with column in [Col0, Col1) and
// row in [Row0, Row1). Its rows either start with its columns and reach at
// least as far (Row0 == Col0, Row1 >= Col1: a diagonal tile or triangle, a
// column with the rows below it) or lie below them (Row0 >= Col1).
type Box struct{ Col0, Col1, Row0, Row1 int }

// record is the positions [lo, hi).
type record struct{ lo, hi int32 }

// NewGroups builds the groups of boxes over ops' factor. The boxes must
// hold every factor element exactly once; a box may be empty.
func NewGroups(ops *model.Ops, boxes []Box) *Groups {
	f := ops.F
	nnz, rowInd := f.NNZ(), f.RowInd
	for g, b := range boxes {
		if b.Col0 < 0 || b.Col0 >= b.Col1 || b.Row0 >= b.Row1 || b.Row1 > f.N ||
			!(b.Row0 == b.Col0 && b.Row1 >= b.Col1 || b.Row0 >= b.Col1) {
			panic(fmt.Sprintf("traffic: group %d is not a box on or below its columns: %+v", g, b))
		}
	}
	// Strips: the boxes sharing a column interval, by first row, so each
	// one's rows are disjoint and ascend. Strip st is the boxes
	// order[first[st]:first[st+1]]; those whose columns hold row x are
	// at[atPtr[x]:atPtr[x+1]].
	order := make([]int32, len(boxes))
	for g := range order {
		order[g] = int32(g)
	}
	slices.SortFunc(order, func(x, y int32) int {
		u, v := boxes[x], boxes[y]
		return cmp.Or(u.Col0-v.Col0, u.Col1-v.Col1, u.Row0-v.Row0)
	})
	first := make([]int32, 0, len(boxes)+1)
	stripAt, colAt := make([]int32, 0, f.N), make([]int32, 0, f.N)
	for r, g := range order {
		box := boxes[g]
		if r > 0 {
			if prev := boxes[order[r-1]]; prev.Col0 == box.Col0 && prev.Col1 == box.Col1 {
				if prev.Row1 > box.Row0 {
					panic(fmt.Sprintf("traffic: groups %d and %d share columns and rows", order[r-1], g))
				}
				continue
			}
		}
		for x := box.Col0; x < box.Col1; x++ {
			stripAt, colAt = append(stripAt, int32(len(first))), append(colAt, int32(x))
		}
		first = append(first, int32(r))
	}
	first = append(first, int32(len(boxes)))
	atPtr, at := byGroup(f.N, stripAt, colAt)
	// runs calls fn for every box of strip st holding rows of the column
	// whose positions end at end, from position pos on, with those
	// positions [lo, hi).
	runs := func(st int32, pos, end int, fn func(g int32, lo, hi int)) {
		for _, g := range order[first[st]:first[st+1]] {
			if pos == end {
				return
			}
			for pos < end && int(rowInd[pos]) < boxes[g].Row0 {
				pos++
			}
			lo := pos
			if int(rowInd[end-1]) < boxes[g].Row1 {
				pos = end
			}
			for pos < end && int(rowInd[pos]) < boxes[g].Row1 {
				pos++
			}
			if pos > lo {
				fn(g, lo, pos)
			}
		}
	}
	elems, elemOf := make([]record, 0, nnz), make([]int32, 0, nnz) // a span holds an element or more
	reads, readOf := make([]record, 0, nnz), make([]int32, 0, nnz)
	read := func(g int32, lo, hi int) {
		reads, readOf = append(reads, record{int32(lo), int32(hi)}), append(readOf, g)
	}
	seen := make([]int32, len(first)-1)
	for k := 0; k < f.N; k++ {
		diag, end := f.ColPtr[k], f.ColPtr[k+1]
		// Column k's own elements, split among the boxes holding them.
		for _, st := range at[atPtr[k]:atPtr[k+1]] {
			runs(st, diag, end, func(g int32, lo, hi int) {
				elems, elemOf = append(elems, record{int32(lo), int32(hi)}), append(elemOf, g)
				read(g, diag, diag+1)
			})
		}
		// k as a source: for each strip, A is the run of k's rows in the
		// strip's columns, met at its first position.
		for aLo := diag + 1; aLo < end; aLo++ {
			for _, st := range at[atPtr[rowInd[aLo]]:atPtr[rowInd[aLo]+1]] {
				if seen[st] == int32(k+1) {
					continue
				}
				seen[st] = int32(k + 1)
				aHi := aLo + 1
				for aHi < end && int(rowInd[aHi]) < boxes[order[first[st]]].Col1 {
					aHi++
				}
				runs(st, aLo, end, func(g int32, lo, hi int) {
					if lo > aLo { // A lies before B
						read(g, aLo, aHi)
					}
					read(g, lo, hi)
				})
			}
		}
	}
	gs := &Groups{nnz: nnz}
	gs.elemPtr, gs.elems = byGroup(len(boxes), elems, elemOf)
	gs.readPtr, gs.reads = byGroup(len(boxes), reads, readOf)
	held := make([]bool, nnz)
	for _, e := range gs.elems {
		for q := e.lo; q < e.hi; q++ {
			if held[q] {
				panic(fmt.Sprintf("traffic: element %d is in two groups", q))
			}
			held[q] = true
		}
	}
	if q := slices.Index(held, false); q >= 0 {
		panic(fmt.Sprintf("traffic: element %d is in no group", q))
	}
	return gs
}

// byGroup lays items out in CSR by their groups, in order within each.
func byGroup[T any](groups int, items []T, of []int32) ([]int32, []T) {
	ptr := make([]int32, groups+1)
	for _, g := range of {
		ptr[g+1]++
	}
	for g := 0; g < groups; g++ {
		ptr[g+1] += ptr[g]
	}
	next := slices.Clone(ptr[:groups])
	out := make([]T, len(items))
	for i, g := range of {
		out[next[g]] = items[i]
		next[g]++
	}
	return ptr, out
}

// NewIncremental builds the counter for schedule s over the groups gs,
// which must be built over the symbolic factor the schedule was computed
// from, each group's elements having one owner in s. The counter reads s
// once; its owner vector, Work and the rest stay the caller's to maintain.
func NewIncremental(gs *Groups, s *sched.Schedule) *Incremental {
	if nnz := s.F.NNZ(); nnz != gs.nnz {
		panic(fmt.Sprintf("traffic: schedule over %d elements, groups over %d", nnz, gs.nnz))
	}
	sched.MustProcs("traffic", s.P)
	t := &Incremental{p: s.P, g: gs, count: make([]int32, gs.nnz*s.P), owner: make([]int32, len(gs.elemPtr)-1), elem: elemOwners(s)}
	for g := range t.owner {
		t.owner[g] = -1
		for _, e := range gs.elems[gs.elemPtr[g]:gs.elemPtr[g+1]] {
			for _, o := range t.elem[e.lo:e.hi] {
				if t.owner[g] < 0 {
					t.owner[g] = o
				} else if o != t.owner[g] {
					panic(fmt.Sprintf("traffic: group %d is not owner-uniform", g))
				}
			}
		}
		if t.owner[g] >= 0 {
			t.read(g, 1, t.owner[g])
		}
	}
	return t
}

// Total returns the current data traffic of the schedule.
func (t *Incremental) Total() int64 { return t.total }

// read adds (sign 1) or removes (sign -1) group g's reads to or from the
// counts of proc. A count is the number of proc's groups reading the
// position, and only whether it is positive reaches the total.
func (t *Incremental) read(g int, sign, proc int32) {
	p, owner := t.p, t.elem
	for _, r := range t.g.reads[t.g.readPtr[g]:t.g.readPtr[g+1]] {
		for q := int(r.lo); q < int(r.hi); q++ {
			c := &t.count[q*p+int(proc)]
			before := *c > 0
			*c += sign
			if after := *c > 0; owner[q] != proc && before != after {
				t.total += int64(sign)
			}
		}
	}
}

// Move reassigns group g to processor dst and returns the new total. A
// move to the current owner, or of a group holding no element, changes
// nothing. The cost is g's records and its own elements.
func (t *Incremental) Move(g int, dst int32) int64 {
	p := t.p
	if dst < 0 || int(dst) >= p {
		panic(fmt.Sprintf("traffic: move to processor %d of %d", dst, p))
	}
	old := t.owner[g]
	if old < 0 || old == dst {
		return t.total
	}
	// The group's reads move with it, old owner to dst.
	t.read(g, -1, old)
	t.read(g, 1, dst)
	// Its elements' own readers stay; which of them is local flips.
	for _, e := range t.g.elems[t.g.elemPtr[g]:t.g.elemPtr[g+1]] {
		for q := int(e.lo); q < int(e.hi); q++ {
			row := t.count[q*p : q*p+p]
			if row[old] > 0 {
				t.total++
			}
			if row[dst] > 0 {
				t.total--
			}
			t.elem[q] = dst
		}
	}
	t.owner[g] = dst
	return t.total
}
