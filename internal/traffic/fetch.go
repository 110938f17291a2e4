package traffic

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/symbolic"
)

// TaskComm attributes the communication of a schedule to its makespan
// tasks (unit blocks for block-granular schedules, columns for
// column-granular ones). It is the bridge between the paper's two cost
// components: Vol carries the bandwidth term (Section 4's data traffic,
// split per task) and Msgs the latency term (Section 2's consolidation
// step, counted per task). Feeding both through exec.CommModel turns the
// compute-only makespan simulators into the unified time estimate.
type TaskComm struct {
	// Vol[t] is the number of distinct non-local elements first fetched
	// for task t's updates (fetch-on-first-use, matching the caching
	// model of Simulate). Summed over tasks it equals Result.Total.
	Vol []int64
	// Msgs[t] is the number of consolidated messages task t receives:
	// one per distinct source processor among its first-use fetches.
	Msgs []int64
}

// TotalVol returns the summed per-task fetch volume, which equals the
// system-wide data traffic of Simulate on the same schedule.
func (tc *TaskComm) TotalVol() int64 {
	var s int64
	for _, v := range tc.Vol {
		s += v
	}
	return s
}

// TotalMsgs returns the summed per-task message count.
func (tc *TaskComm) TotalMsgs() int64 {
	var s int64
	for _, m := range tc.Msgs {
		s += m
	}
	return s
}

// fetchPerTask runs the element-fetch simulation once, attributing every
// distinct (processor, element) fetch to taskOf(tgt) of the update that
// first requires it. The dedup rule is identical to Simulate's, so the
// per-task volumes partition the traffic total exactly.
func fetchPerTask(ops *model.Ops, s *sched.Schedule, ntasks int, taskOf func(tgt int32) int32) *TaskComm {
	nnz := ops.F.NNZ()
	if len(s.ElemProc) != nnz {
		panic(fmt.Sprintf("traffic: schedule covers %d elements, factor has %d", len(s.ElemProc), nnz))
	}
	tc := &TaskComm{Vol: make([]int64, ntasks), Msgs: make([]int64, ntasks)}
	fetched := NewFetchDedup(s.P, nnz)
	msgSeen := make(map[int64]struct{}) // distinct (source processor, task) pairs
	access := func(elem, tgt int32) {
		proc := s.ElemProc[tgt]
		owner := s.ElemProc[elem]
		if owner == proc || !fetched.FirstFetch(elem, proc) {
			return
		}
		task := taskOf(tgt)
		tc.Vol[task]++
		mk := int64(owner)<<32 | int64(task)
		if _, ok := msgSeen[mk]; !ok {
			msgSeen[mk] = struct{}{}
			tc.Msgs[task]++
		}
	}
	ops.ForEachUpdate(func(u model.Update) {
		access(u.SrcI, u.Tgt)
		access(u.SrcJ, u.Tgt)
	})
	ops.ForEachScale(func(tgt, diag int32) {
		access(diag, tgt)
	})
	return tc
}

// FetchStatsTasks attributes every distinct non-local fetch of a schedule
// to an arbitrary task granularity: taskOf maps the factor nonzero
// position of an update's target to the task charged for the fetch. The
// dedup rule is identical to Simulate's, so the per-task volumes
// partition the traffic total exactly whatever the granularity — unit
// blocks (FetchStats), columns (FetchStatsColumns), or the merged
// tile-segment tasks of the 2D subsystem (part2d.FetchStats).
func FetchStatsTasks(ops *model.Ops, s *sched.Schedule, ntasks int, taskOf func(tgt int32) int32) *TaskComm {
	return fetchPerTask(ops, s, ntasks, taskOf)
}

// FetchStats attributes every distinct non-local fetch of a
// block-partitioned schedule to the unit block whose update first requires
// it, with per-unit message counts (one message per distinct source
// processor feeding a unit).
func FetchStats(part *core.Partition, ops *model.Ops, s *sched.Schedule) *TaskComm {
	if len(part.ElemUnit) != ops.F.NNZ() {
		panic("traffic: schedule/partition/factor mismatch")
	}
	return fetchPerTask(ops, s, len(part.Units), func(tgt int32) int32 { return part.ElemUnit[tgt] })
}

// FetchStatsColumns is FetchStats for column-mapped schedules, attributing
// fetches and messages to columns.
func FetchStatsColumns(ops *model.Ops, s *sched.Schedule) *TaskComm {
	colOf := columnIndex(ops.F)
	return fetchPerTask(ops, s, ops.F.N, func(tgt int32) int32 { return colOf[tgt] })
}

// columnIndex returns the column of every factor nonzero position.
func columnIndex(f *symbolic.Factor) []int32 {
	colOf := make([]int32, f.NNZ())
	for j := 0; j < f.N; j++ {
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			colOf[q] = int32(j)
		}
	}
	return colOf
}
