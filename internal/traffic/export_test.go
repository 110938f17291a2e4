package traffic

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sched"
)

// FetchStatsTasks attributes every distinct non-local fetch of a schedule
// to an arbitrary task granularity: taskOf[q] is the task charged for a
// fetch first required by an update (or the scale) of the factor element
// at position q. The dedup rule is identical to Simulate's, so the
// per-task volumes partition the traffic total exactly whatever the
// granularity and whatever the element ownership.
//
// It is the element-level walk of firstFetches that also charges every
// first fetch to its target's task as it is found, the reference both of
// FetchStats' passes are held to: O(#updates) time — every pair update of
// the factorization is visited once — and 8·⌈P/64⌉·(nnz(L) + ntasks)
// bytes of transient masks, allocated up front and nothing per fetch.
func FetchStatsTasks(s *sched.Schedule, ntasks int, taskOf []int32) *TaskComm {
	f := s.F
	if len(taskOf) != f.NNZ() {
		panic(fmt.Sprintf("traffic: task map covers %d elements, factor has %d", len(taskOf), f.NNZ()))
	}
	ch := NewCharger(s.P, ntasks, taskOf)
	owner, fetched := elemOwners(s), newFetchDedup(s.P, f.NNZ())
	model.NewOps(f).ForEachRun(func(r model.Run) {
		lo, ownerLo := r.Lo, owner[r.Lo]
		for q := lo; q < r.Hi; q++ {
			tgt := r.Tgt[f.RowInd[q]]
			proc := owner[tgt]
			if o := owner[q]; o != proc && fetched.firstFetch(q, proc) {
				ch.charge(tgt, o)
			}
			if ownerLo != proc && fetched.firstFetch(lo, proc) {
				ch.charge(tgt, ownerLo)
			}
		}
	})
	// The diagonal is never a pair-update source: the scales' stamp alone
	// selects their first fetches.
	scaleFetches(f, s.P, func(j int) []int32 { return owner[f.ColPtr[j]:f.ColPtr[j+1]] }, nil, &ch)
	return ch.Done()
}

// The reference check, for the strategy and 2D grids of
// fetch_grid_test.go (package traffic_test, which may import the packages
// that import this one), and, for owners_test.go, the column owners of an
// element map and a schedule's element owners, derived and reference.
var (
	CheckAttribution = checkAttribution
	OwnerPerColumn   = ownerPerColumn
	ElemOwners       = elemOwners
	RefElemProc      = refElemProc
)

// GroupsSize counts a Groups' records and the positions they cover.
func GroupsSize(gs *Groups) (records, positions int) {
	for _, r := range gs.reads {
		positions += int(r.hi - r.lo)
	}
	return len(gs.reads), positions
}

// GroupsRepeat returns a group that reads some position in two records,
// or -1 when every group reads each of its positions once.
func GroupsRepeat(gs *Groups) int {
	seen := make([]int32, gs.nnz) // seen[q] == g+1: group g reads q
	for g := 0; g+1 < len(gs.readPtr); g++ {
		for _, r := range gs.reads[gs.readPtr[g]:gs.readPtr[g+1]] {
			for q := r.lo; q < r.hi; q++ {
				if seen[q] == int32(g+1) {
					return g
				}
				seen[q] = int32(g + 1)
			}
		}
	}
	return -1
}
