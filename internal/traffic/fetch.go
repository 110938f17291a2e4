package traffic

import (
	"fmt"
	"math/bits"

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
func (tc *TaskComm) TotalVol() int64 { return model.TotalWork(tc.Vol) }

// TotalMsgs returns the summed per-task message count.
func (tc *TaskComm) TotalMsgs() int64 { return model.TotalWork(tc.Msgs) }

// firstFetches is the one element-level walk of the traffic model: it
// visits every source access of the factorization — the two sources of
// every pair update, run by run in model.Ops.ForEachRun's order, then the
// diagonal read of every scale — and marks each distinct non-local
// (element, processor) pair in the returned tracker. What Simulate and
// the consolidation step report is a tally of that final set; the fetch
// attribution also needs to know which access came first, so a non-nil
// ch is told of every first fetch as it is found.
func firstFetches(ops *model.Ops, s *sched.Schedule, ch *Charger) *FetchDedup {
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
	scaleFetches(f, owner, s.P, fetched, ch)
	return fetched
}

// scaleFetches is the scale half of both the walk and the read-map
// replay: processor p reads column j's diagonal for every element of
// column j it owns, and fetches it once, charged to the first such
// element, when it does not own it. The diagonal is never a pair-update
// source, so a per-column stamp selects exactly the walk's first fetches;
// fetched, when non-nil, is marked with them and ch, when non-nil, charged.
func scaleFetches(f *symbolic.Factor, owner []int32, p int, fetched *FetchDedup, ch *Charger) {
	stamp := make([]int32, p) // stamp[q] == j+1: q fetched column j's diagonal
	for j := 0; j < f.N; j++ {
		diag := int32(f.ColPtr[j])
		od, mark := owner[diag], int32(j+1)
		for q := diag + 1; q < int32(f.ColPtr[j+1]); q++ {
			if pq := owner[q]; pq != od && stamp[pq] != mark {
				stamp[pq] = mark
				if fetched != nil {
					fetched.FirstFetch(diag, pq)
				}
				if ch != nil {
					ch.charge(q, od)
				}
			}
		}
	}
}

// Charger books first fetches to tasks, and is the one place where (task,
// sender) pairs become TaskComm.Msgs: each task keeps a ⌈P/64⌉-word mask of
// the processors it hears from, and Done counts one message per bit. A
// caller outside this package adds its volumes to the Vol Done returns.
type Charger struct {
	tc     *TaskComm
	taskOf []int32 // for charge: the task of a fetch's target position
	words  int
	from   []uint64
}

// NewCharger returns a charger for ntasks tasks on p processors, by value:
// one that does not outlive its caller's frame costs no allocation. taskOf
// maps a fetch's target position to its task for the walk's own charges;
// a caller that only reports messages passes nil.
func NewCharger(p, ntasks int, taskOf []int32) Charger {
	sched.MustProcs("traffic", p)
	words := (p + 63) / 64
	return Charger{
		tc:     &TaskComm{Vol: make([]int64, ntasks), Msgs: make([]int64, ntasks)},
		taskOf: taskOf,
		words:  words, from: make([]uint64, words*ntasks),
	}
}

// charge books one fetch to taskOf[tgt], the task of the target whose
// update (or scale) required it, sent by processor owner.
func (c *Charger) charge(tgt, owner int32) {
	task := c.taskOf[tgt]
	c.tc.Vol[task]++
	c.Message(int(task), owner)
}

// Message records that task receives a message from processor owner.
func (c *Charger) Message(task int, owner int32) {
	c.from[task*c.words+int(owner>>6)] |= 1 << (uint(owner) & 63)
}

// Done counts every task's messages, one per processor it hears from, and
// returns the attribution.
func (c *Charger) Done() *TaskComm {
	for t := range c.tc.Msgs {
		for _, w := range c.from[t*c.words:][:c.words] {
			c.tc.Msgs[t] += int64(bits.OnesCount64(w))
		}
	}
	return c.tc
}

// FetchStatsTasks attributes every distinct non-local fetch of a schedule
// to an arbitrary task granularity: taskOf[q] is the task charged for a
// fetch first required by an update (or the scale) of the factor element
// at position q. The dedup rule is identical to Simulate's, so the
// per-task volumes partition the traffic total exactly whatever the
// granularity: unit blocks (FetchStats' fallback), columns
// (FetchStatsColumns' fallback) or any other task map.
//
// It is the element-level walk: O(#updates) time — every pair update of
// the factorization is visited once — and 8·⌈P/64⌉·(nnz(L) + ntasks)
// bytes of transient masks, allocated up front and nothing per fetch.
func FetchStatsTasks(ops *model.Ops, s *sched.Schedule, ntasks int, taskOf []int32) *TaskComm {
	if len(taskOf) != ops.F.NNZ() {
		panic(fmt.Sprintf("traffic: task map covers %d elements, factor has %d", len(taskOf), ops.F.NNZ()))
	}
	ch := NewCharger(s.P, ntasks, taskOf)
	firstFetches(ops, s, &ch)
	return ch.Done()
}

// FetchStats attributes every distinct non-local fetch of a
// block-partitioned schedule to the unit block whose update first requires
// it, with per-unit message counts (one message per distinct source
// processor feeding a unit).
//
// When the schedule is unit-uniform — every element on its unit's
// processor, every unit on a processor of the schedule; checked in
// O(nnz(L)), never assumed — and ops enumerates the partition's own
// factor, the attribution replays the partition's read map (replayReads).
// Any other schedule takes the walk, FetchStatsTasks over the
// element-to-unit map.
func FetchStats(part *core.Partition, ops *model.Ops, s *sched.Schedule) *TaskComm {
	f := ops.F
	if len(part.ElemUnit) != f.NNZ() {
		panic("traffic: schedule/partition/factor mismatch")
	}
	if len(s.ElemProc) != f.NNZ() {
		panic(fmt.Sprintf("traffic: schedule covers %d elements, factor has %d", len(s.ElemProc), f.NNZ()))
	}
	sched.MustProcs("traffic", s.P)
	if part.F != f || !unitUniform(part, s) {
		return FetchStatsTasks(ops, s, len(part.Units), part.ElemUnit)
	}
	return replayReads(part, s)
}

// replayReads is FetchStats on a unit-uniform schedule: the walk replayed
// from the read map (core.ReadMap), one source column at a time. Each
// processor keeps a bitset over the column's positions of what it owns or
// has fetched, and an entry of unit u fetches, on u's processor, its bits
// not yet set, charging them to u and their owners to u's messages. The
// scales then take the walk's own pass, scaleFetches. That is O(entries +
// nnz(L) + fetches) instead of O(#updates), with Vol and Msgs equal to the
// walk's task by task.
func replayReads(part *core.Partition, s *sched.Schedule) *TaskComm {
	f, rm := part.F, part.ReadMap()
	ch := NewCharger(s.P, len(part.Units), part.ElemUnit) // taskOf for the scales
	owner := s.ElemProc
	longest := 0
	for k := 0; k < f.N; k++ {
		longest = max(longest, f.ColLen(k)-1)
	}
	words := (longest + 63) / 64
	// held[p*words:][:words] marks the positions of the current column
	// processor p owns or has fetched; stamp[p] == k+1 when they are
	// column k's. starts marks the positions whose owner is not the one
	// before's.
	held, starts := make([]uint64, s.P*words), make([]uint64, words)
	stamp := make([]int32, s.P)
	unitProc, vol := s.UnitProc, ch.tc.Vol
	for k, reads := range rm.Cols {
		if len(reads) == 0 {
			continue
		}
		base := int32(f.ColPtr[k] + 1)
		col := owner[base:f.ColPtr[k+1]]
		nw := (len(col) + 63) / 64
		mark := int32(k + 1)
		clear(starts[:nw])
		prev := int32(-1)
		for b, o := range col {
			w := held[int(o)*words:][:nw]
			if stamp[o] != mark {
				stamp[o] = mark
				clear(w)
			}
			bit := uint64(1) << (b & 63)
			w[b>>6] |= bit
			if o != prev {
				starts[b>>6] |= bit
				prev = o
			}
		}
		for _, rd := range reads {
			p := int(unitProc[rd.Unit])
			if stamp[p] != mark {
				stamp[p] = mark
				clear(held[p*words:][:nw])
			}
			x := p*words + int(rd.Word)
			m := rd.Bits &^ held[x]
			if m == 0 {
				continue
			}
			held[x] |= m
			u := int(rd.Unit)
			vol[u] += int64(bits.OnesCount64(m))
			// Every owner of a new bit owns the first bit of its stretch of
			// new bits or a new bit where an owner's run starts.
			for c := m&^(m<<1) | m&starts[rd.Word]; c != 0; c &= c - 1 {
				ch.Message(u, col[int(rd.Word)<<6|bits.TrailingZeros64(c)])
			}
		}
	}
	scaleFetches(f, owner, s.P, nil, &ch)
	return ch.Done()
}

// unitUniform reports whether every element of s sits on its unit's
// processor and every unit on a processor of s: the check behind
// FetchStats's replay of the read map.
func unitUniform(part *core.Partition, s *sched.Schedule) bool {
	if len(s.UnitProc) != len(part.Units) {
		return false
	}
	for _, p := range s.UnitProc {
		if p < 0 || int(p) >= s.P {
			return false
		}
	}
	for q, u := range part.ElemUnit {
		if s.ElemProc[q] != s.UnitProc[u] {
			return false
		}
	}
	return true
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
	ch := NewCharger(s.P, f.N, nil)
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
			ch.Message(j, o)
		}
	}
	return ch.Done()
}

// columnOwners returns the owner of every column of s, and whether s is
// column-uniform: every element of a column on the column's owner, every
// owner a processor of s. It is the O(nnz(L)) check behind the closed form
// above.
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
