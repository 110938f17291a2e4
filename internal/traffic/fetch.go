package traffic

import (
	"math/bits"

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
// visits every source access of the factorization of s.F — the two
// sources of every pair update, run by run in model.Ops.ForEachRun's
// order, then the diagonal read of every scale — and marks each distinct
// non-local (element, processor) pair in the returned tracker. owner is
// the owner of every element of s.F (elemOwners). What Simulate reports
// is a tally of that final set.
func firstFetches(s *sched.Schedule, owner []int32) *fetchDedup {
	f := s.F
	fetched := newFetchDedup(s.P, f.NNZ())
	rowInd := f.RowInd
	model.NewOps(f).ForEachRun(func(r model.Run) {
		lo, ownerLo := r.Lo, owner[r.Lo]
		for q := lo; q < r.Hi; q++ {
			proc := owner[r.Tgt[rowInd[q]]]
			if owner[q] != proc {
				fetched.firstFetch(q, proc)
			}
			if ownerLo != proc {
				fetched.firstFetch(lo, proc)
			}
		}
	})
	scaleFetches(f, s.P, func(j int) []int32 { return owner[f.ColPtr[j]:f.ColPtr[j+1]] }, fetched, nil)
	return fetched
}

// elemOwners is the owner of every element of s.F, one transient slice
// for the element-level readers: the walk and Incremental.
func elemOwners(s *sched.Schedule) []int32 {
	owner := make([]int32, 0, s.F.NNZ())
	for j := 0; j < s.F.N; j++ {
		owner = s.AppendOwners(owner, j)
	}
	return owner
}

// scaleFetches is the scale half of both the walk and the read-map
// replay: processor p reads column j's diagonal for every element of
// column j it owns, and fetches it once, charged to the first such
// element, when it does not own it. colOwners(j) is the owner of every
// position of column j. The diagonal is never a pair-update source, so a
// per-column stamp selects exactly the walk's first fetches; fetched,
// when non-nil, is marked with them and ch, when non-nil, charged.
func scaleFetches(f *symbolic.Factor, p int, colOwners func(j int) []int32, fetched *fetchDedup, ch *Charger) {
	stamp := make([]int32, p) // stamp[q] == j+1: q fetched column j's diagonal
	for j := 0; j < f.N; j++ {
		col, diag := colOwners(j), int32(f.ColPtr[j])
		od, mark := col[0], int32(j+1)
		for i, pq := range col[1:] {
			if pq != od && stamp[pq] != mark {
				stamp[pq] = mark
				if fetched != nil {
					fetched.firstFetch(diag, pq)
				}
				if ch != nil {
					ch.charge(diag+1+int32(i), od)
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
	counts := make([]int64, 2*ntasks) // Vol and Msgs, one allocation
	return Charger{
		tc:     &TaskComm{Vol: counts[:ntasks:ntasks], Msgs: counts[ntasks:]},
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

// FetchStats attributes every distinct non-local fetch of a schedule to
// its makespan tasks — the unit blocks of a block-granular schedule, the
// columns of a column-granular one — with per-task message counts (one
// message per distinct source processor feeding a task). It reads the
// schedule's own owner vector: UnitProc takes the replay of the
// partition's read map (replayReads), ColProc the closed form
// (columnFetches). Both are task by task the answer of the element walk
// charging Part.ElemUnit or the column index (FetchStatsTasks, kept with
// the tests). A schedule with neither vector has no task granularity here
// and panics.
func FetchStats(s *sched.Schedule) *TaskComm {
	switch {
	case s.Part != nil:
		return replayReads(s)
	case s.ColProc != nil:
		return columnFetches(s)
	}
	panic("traffic: FetchStats of a schedule with neither unit nor column owners")
}

// replayReads is FetchStats of a block-granular schedule: the walk
// replayed from the read map of its partition (core.ReadMap), one source
// column at a time. Each
// processor keeps a bitset over the column's positions of what it owns or
// has fetched, and an entry of unit u fetches, on u's processor, its bits
// not yet set, charging them to u and their owners to u's messages. The
// scales then take the walk's own pass, scaleFetches. That is O(entries +
// nnz(L) + fetches) instead of O(#updates), with Vol and Msgs equal to the
// walk's task by task.
func replayReads(s *sched.Schedule) *TaskComm {
	part := s.Part
	f, rm := part.F, part.ReadMap()
	ch := NewCharger(s.P, len(part.Units), part.ElemUnit) // taskOf for the scales
	longest := 0
	for k := 0; k < f.N; k++ {
		longest = max(longest, f.ColLen(k)-1)
	}
	// colOwners reads the owners of column k's positions into one buffer.
	buf := make([]int32, 0, longest+1)
	colOwners := func(k int) []int32 { return s.AppendOwners(buf[:0], k) }
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
		col := colOwners(k)[1:]
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
	scaleFetches(f, s.P, colOwners, nil, &ch)
	return ch.Done()
}

// columnFetches is FetchStats of a column-granular schedule, computed in
// closed form on its column owners (ColProc) in O(nnz(L) + n·⌈P/64⌉)
// instead of the walk's O(#updates). The sources target column j reads in
// source column k are the suffix of struct(k) from row j down
// (ColumnRefs), suffixes of one column are nested, and the walk visits
// target columns in increasing order; so the first target row j of
// struct(k) that a processor q != owner(k) owns fetches the whole suffix
// on q's behalf, every later row of q in struct(k) finds it cached, and
// the scales read only their own column. One pass over struct(k) with a
// P-entry stamp therefore gives exactly the Vol and Msgs of the
// element-level walk, task by task, not merely the same total.
func columnFetches(s *sched.Schedule) *TaskComm {
	f, colOwner := s.F, s.ColProc
	ch := NewCharger(s.P, f.N, nil)
	stamp := make([]int32, s.P) // stamp[q] == k+1: q already fetched from column k
	for k := 0; k < f.N; k++ {
		o, end := colOwner[k], f.ColPtr[k+1]
		for p := f.ColPtr[k] + 1; p < end; p++ {
			j := int(f.RowInd[p])
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
