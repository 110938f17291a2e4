package traffic

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sched"
)

// MessageStats is the outcome of the consolidation step — the fifth step
// of the paper's pipeline: "Consolidate the non-local memory access
// information for each processor so as to minimize communication
// overhead." Element fetches with the same (owning group, destination
// processor) pair travel together as one message, so the message count —
// the latency-bound component of communication cost — can be far smaller
// than the element volume; how much smaller is precisely the
// consolidation benefit the block partitioning buys.
type MessageStats struct {
	P int
	// Messages is the total number of consolidated messages (distinct
	// (source group, destination processor) pairs with at least one
	// fetched element).
	Messages int64
	// Elements is the total element volume (equals Result.Total).
	Elements int64
	// PerProc counts messages received by each processor.
	PerProc []int64
	// MeanSize is the average number of elements per message; MaxSize the
	// largest single message.
	MeanSize float64
	MaxSize  int64
}

// Consolidate runs the element-fetch simulation and groups the distinct
// fetches into messages, one per (source group, destination processor)
// pair: groupOf maps every factor element to its group — the unit blocks
// of a block-partitioned schedule (core.Partition.ElemUnit), the columns
// of a column-mapped one (symbolic.Factor.ColIndex), the natural
// consolidation unit when whole columns live on one processor.
func Consolidate(ops *model.Ops, s *sched.Schedule, groupOf []int32) *MessageStats {
	if nnz := ops.F.NNZ(); len(s.ElemProc) != nnz || len(groupOf) != nnz {
		panic(fmt.Sprintf("traffic: schedule (%d elements) or groups (%d) over a different factor (%d)", len(s.ElemProc), len(groupOf), nnz))
	}
	type key struct {
		group int32
		proc  int32
	}
	sizes := make(map[key]int64)
	firstFetches(ops, s, nil).each(func(elem, proc int32) {
		sizes[key{groupOf[elem], proc}]++
	})
	st := &MessageStats{P: s.P, PerProc: make([]int64, s.P)}
	//repro:allow maporder -- commutative counts, sums and max over consolidated messages; order cannot change any statistic
	for k, sz := range sizes {
		st.Messages++
		st.Elements += sz
		st.PerProc[k.proc]++
		if sz > st.MaxSize {
			st.MaxSize = sz
		}
	}
	if st.Messages > 0 {
		st.MeanSize = float64(st.Elements) / float64(st.Messages)
	}
	return st
}
