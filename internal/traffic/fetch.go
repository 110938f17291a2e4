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

// firstFetches is the one element-level walk of the traffic model: it
// visits every source access of the factorization — the two sources of
// every pair update, run by run in model.Ops.ForEachRun's order, then the
// diagonal read of every scale — and marks each distinct non-local
// (element, processor) pair in the returned tracker. What Simulate and
// the consolidation step report is a tally of that final set; the fetch
// attribution also needs to know which access came first, so a non-nil
// ch is told of every first fetch as it is found.
func firstFetches(ops *model.Ops, s *sched.Schedule, ch *charger) *FetchDedup {
	f := ops.F
	nnz := f.NNZ()
	if len(s.ElemProc) != nnz {
		panic(fmt.Sprintf("traffic: schedule covers %d elements, factor has %d", len(s.ElemProc), nnz))
	}
	fetched := NewFetchDedup(s.P, nnz)
	owner, rowInd := s.ElemProc, f.RowInd
	ops.ForEachRun(func(r model.Run) {
		lo, ownerLo := r.Lo, owner[r.Lo]
		for q := lo; q < r.Hi; q++ {
			tgt := r.Tgt[rowInd[q]]
			proc := owner[tgt]
			if o := owner[q]; o != proc && fetched.FirstFetch(q, proc) && ch != nil {
				ch.charge(tgt, o)
			}
			if ownerLo != proc && fetched.FirstFetch(lo, proc) && ch != nil {
				ch.charge(tgt, ownerLo)
			}
		}
	})
	for j := 0; j < f.N; j++ {
		diag := int32(f.ColPtr[j])
		ownerDiag := owner[diag]
		for q := diag + 1; q < int32(f.ColPtr[j+1]); q++ {
			if proc := owner[q]; ownerDiag != proc && fetched.FirstFetch(diag, proc) && ch != nil {
				ch.charge(q, ownerDiag)
			}
		}
	}
	return fetched
}

// charger books first fetches to tasks: one unit of Vol to taskOf[tgt] of
// the target whose update (or scale) required the fetch, and one message
// the first time that task reads from the fetched element's owner. from
// holds, per task, a ⌈P/64⌉-word mask of the processors it has heard from.
type charger struct {
	tc     *TaskComm
	taskOf []int32
	words  int
	from   []uint64
}

func newCharger(p, ntasks int, taskOf []int32) *charger {
	words := (p + 63) / 64
	return &charger{
		tc:     &TaskComm{Vol: make([]int64, ntasks), Msgs: make([]int64, ntasks)},
		taskOf: taskOf, words: words, from: make([]uint64, words*ntasks),
	}
}

func (c *charger) charge(tgt, owner int32) {
	task := c.taskOf[tgt]
	c.tc.Vol[task]++
	c.message(int(task), owner)
}

// message counts one message to task from processor owner, once.
func (c *charger) message(task int, owner int32) {
	w := &c.from[task*c.words+int(owner>>6)]
	if bit := uint64(1) << (uint(owner) & 63); *w&bit == 0 {
		*w |= bit
		c.tc.Msgs[task]++
	}
}

// FetchStatsTasks attributes every distinct non-local fetch of a schedule
// to an arbitrary task granularity: taskOf[q] is the task charged for a
// fetch first required by an update (or the scale) of the factor element
// at position q. The dedup rule is identical to Simulate's, so the
// per-task volumes partition the traffic total exactly whatever the
// granularity — unit blocks (FetchStats), columns (FetchStatsColumns), or
// the merged tile-segment tasks of the 2D subsystem (part2d.FetchStats).
//
// It is the element-level walk: O(#updates) time — every pair update of
// the factorization is visited once — and 8·⌈P/64⌉·(nnz(L) + ntasks)
// bytes of transient masks, allocated up front and nothing per fetch.
func FetchStatsTasks(ops *model.Ops, s *sched.Schedule, ntasks int, taskOf []int32) *TaskComm {
	if len(taskOf) != ops.F.NNZ() {
		panic(fmt.Sprintf("traffic: task map covers %d elements, factor has %d", len(taskOf), ops.F.NNZ()))
	}
	sched.MustProcs("traffic", s.P)
	ch := newCharger(s.P, ntasks, taskOf)
	firstFetches(ops, s, ch)
	return ch.tc
}

// FetchStats attributes every distinct non-local fetch of a
// block-partitioned schedule to the unit block whose update first requires
// it, with per-unit message counts (one message per distinct source
// processor feeding a unit).
func FetchStats(part *core.Partition, ops *model.Ops, s *sched.Schedule) *TaskComm {
	if len(part.ElemUnit) != ops.F.NNZ() {
		panic("traffic: schedule/partition/factor mismatch")
	}
	return FetchStatsTasks(ops, s, len(part.Units), part.ElemUnit)
}

// FetchStatsColumns is FetchStats for column-mapped schedules, attributing
// fetches and messages to columns.
//
// When every column of the schedule has one owner — checked in O(nnz(L)),
// never assumed — the attribution is computed in closed form, in
// O(nnz(L) + n·⌈P/64⌉) instead of O(#updates). The sources target column
// j reads in source column k are the suffix of struct(k) from row j down
// (ColumnRefs), suffixes of one column are nested, and the walk visits
// target columns in increasing order; so the first target row j of
// struct(k) that a processor q != owner(k) owns fetches the whole suffix
// on q's behalf, every later row of q in struct(k) finds it cached, and
// the scales read only their own column. One pass over struct(k) with a
// P-entry stamp therefore gives exactly the Vol and Msgs of the
// element-level walk, task by task, not merely the same total. A schedule
// with any column split between owners (or an owner outside [0, P)) falls
// through to that walk, FetchStatsTasks over the column index.
func FetchStatsColumns(ops *model.Ops, s *sched.Schedule) *TaskComm {
	f := ops.F
	if len(s.ElemProc) != f.NNZ() {
		panic(fmt.Sprintf("traffic: schedule covers %d elements, factor has %d", len(s.ElemProc), f.NNZ()))
	}
	sched.MustProcs("traffic", s.P)
	colOwner, ok := columnOwners(f, s)
	if !ok {
		return FetchStatsTasks(ops, s, f.N, f.ColIndex())
	}
	ch := newCharger(s.P, f.N, nil)
	stamp := make([]int32, s.P) // stamp[q] == k+1: q already fetched from column k
	for k := 0; k < f.N; k++ {
		o, end := colOwner[k], f.ColPtr[k+1]
		for p := f.ColPtr[k] + 1; p < end; p++ {
			j := f.RowInd[p]
			q := colOwner[j]
			if q == o || stamp[q] == int32(k+1) {
				continue
			}
			stamp[q] = int32(k + 1)
			ch.tc.Vol[j] += int64(end - p)
			ch.message(j, o)
		}
	}
	return ch.tc
}

// columnOwners returns the owner of every column of s, and whether s is
// column-uniform: every element of a column on the column's owner, every
// owner a processor of s.
func columnOwners(f *symbolic.Factor, s *sched.Schedule) ([]int32, bool) {
	colOwner := make([]int32, f.N)
	for j := 0; j < f.N; j++ {
		o := s.ElemProc[f.ColPtr[j]]
		if o < 0 || int(o) >= s.P {
			return nil, false
		}
		for _, q := range s.ElemProc[f.ColPtr[j]+1 : f.ColPtr[j+1]] {
			if q != o {
				return nil, false
			}
		}
		colOwner[j] = o
	}
	return colOwner, true
}
