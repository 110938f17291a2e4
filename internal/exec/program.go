package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// Program is the compiled form of one task graph over one symbolic factor:
// the merged tile-segment graph of a 2D tile schedule (part2d.Tasks), the
// column graph of a 1D schedule (ColumnTasksMapped with elemTask =
// symbolic.Factor.ColIndex) or the unit-block graph of a block schedule
// (CompileBlocks), laid out once as flat arrays. Run then factorizes any
// matrix with the factor's pattern, any number of times and from any
// number of goroutines at once, doing no per-run work beyond scattering
// the values and resetting the dependency counters.
//
// A task is a list of runs — ranges of consecutive positions of one
// column: a whole column, a tile's rows of it, a unit block's band — and
// every run is one numeric.Kernel.Segment call, the serial kernel's own
// step. So the factor a Run produces is bit-for-bit the serial kernel's
// (numeric.Factorize or FactorizeLDL) however the columns are cut and the
// tasks interleave: every element takes its updates in ascending source
// column (the order of model.Ops.ForEachRun) with the same association.
// That makes the run deterministic and the comm-aware makespan simulators
// falsifiable — the task graph they predict is what actually runs.
type Program struct {
	f *symbolic.Factor
	p int

	proc   []int32 // task -> worker
	runPtr []int32 // the runs of t are runs[runPtr[t]:runPtr[t+1]], ascending
	runs   []segment

	indeg   []int32 // task -> number of predecessors
	succPtr []int32 // successors of t are succ[succPtr[t]:succPtr[t+1]]
	succ    []int32
	own     []int32 // worker -> number of tasks
}

// segment is one run of a task: positions [lo, hi) of column j.
type segment struct{ j, lo, hi int32 }

// Compile lays out a task graph for the factor f on p workers; elemTask
// assigns every factor position to a task. It checks the shape — tasks
// topologically ordered by ID, processors in [0, p), every task in range
// — and reports a malformed one as an error. It does not check that a
// task's predecessors own the sources of its updates and the diagonals it
// scales by: that is the constructors' contract (ColumnTasksMapped,
// part2d.Tasks, CompileBlocks), pinned by the bit-identity tests, and
// Measure checks every run bitwise.
func Compile(f *symbolic.Factor, p int, tasks []Task, elemTask []int32) (*Program, error) {
	if err := sched.CheckProcs("exec", p); err != nil {
		return nil, err
	}
	if err := checkTasks(tasks, p); err != nil {
		return nil, err
	}
	if len(elemTask) != f.NNZ() {
		return nil, fmt.Errorf("exec: element-task map covers %d positions, factor has %d", len(elemTask), f.NNZ())
	}
	nt := len(tasks)
	pg := &Program{
		f: f, p: p,
		proc:    make([]int32, nt),
		runPtr:  make([]int32, nt+1),
		indeg:   make([]int32, nt),
		succPtr: make([]int32, nt+1),
		own:     make([]int32, p),
	}
	// A run starts at each column's first position and wherever the task
	// changes: count each task's runs (prefix-summed below), then fill them
	// in ascending position.
	for j := 0; j < f.N; j++ {
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			if t := elemTask[q]; t < 0 || int(t) >= nt {
				return nil, fmt.Errorf("exec: position %d mapped to out-of-range task %d", q, t)
			} else if q == f.ColPtr[j] || t != elemTask[q-1] {
				pg.runPtr[t+1]++
			}
		}
	}
	for t := 0; t < nt; t++ {
		pg.runPtr[t+1] += pg.runPtr[t]
	}
	pg.runs = make([]segment, pg.runPtr[nt])
	fill := append([]int32(nil), pg.runPtr[:nt]...)
	for j := 0; j < f.N; j++ {
		for q, end := f.ColPtr[j], f.ColPtr[j+1]; q < end; {
			t, hi := elemTask[q], q+1
			for hi < end && elemTask[hi] == t {
				hi++
			}
			pg.runs[fill[t]] = segment{int32(j), int32(q), int32(hi)}
			fill[t]++
			q = hi
		}
	}
	// Successor lists, the transpose of Preds, in ascending task order.
	for i := range tasks {
		t := &tasks[i]
		pg.proc[i] = t.Proc
		pg.own[t.Proc]++
		pg.indeg[i] = int32(len(t.Preds))
		for _, pr := range t.Preds {
			pg.succPtr[pr+1]++
		}
	}
	for t := 0; t < nt; t++ {
		pg.succPtr[t+1] += pg.succPtr[t]
	}
	pg.succ = make([]int32, pg.succPtr[nt])
	copy(fill, pg.succPtr[:nt])
	for i := range tasks {
		for _, pr := range tasks[i].Preds {
			pg.succ[fill[pr]] = int32(i)
			fill[pr]++
		}
	}
	f.Rows() // built here, not by the first task to need it
	return pg, nil
}

// CompileBlocks compiles the block-granular schedule s of part: one task
// per unit block over the partition's own factor (part.F, the padded one
// when relaxed), run by the unit's processor. The execution graph is
// BlockTasks plus the scale edges: a unit also waits for the unit holding
// the diagonal of every column it touches.
func CompileBlocks(part *core.Partition, s *sched.Schedule) (*Program, error) {
	f := part.F
	if len(s.UnitProc) != len(part.Units) || len(s.ElemProc) != f.NNZ() {
		return nil, fmt.Errorf("exec: schedule covers a different partition")
	}
	tasks := BlockTasks(part, s)
	seen := make([]int32, len(tasks)) // seen[v] == u+1: v already precedes u
	for ui := range tasks {
		u := &part.Units[ui]
		preds := u.Preds[:len(u.Preds):len(u.Preds)] // appending copies: the partition keeps its own
		mark := int32(ui + 1)
		seen[ui] = mark
		for _, pr := range preds {
			seen[pr] = mark
		}
		for j := u.ColLo; j <= u.ColHi; j++ {
			if du := part.ElemUnit[f.ColPtr[j]]; seen[du] != mark {
				seen[du] = mark
				preds = append(preds, du)
			}
		}
		tasks[ui].Preds = preds
	}
	return Compile(f, s.P, tasks, part.ElemUnit)
}

// Run factorizes m, whose pattern must be a subset of the program's
// factor structure, with one worker goroutine per processor that owns a
// task. Each worker drains a ready queue of its own tasks, lowest ID
// first; the worker that retires a task's last predecessor feeds it to its
// owner's queue, waking the owner if it is parked. A single-processor
// program runs inline in ID order. k selects the kernel; with record set
// every task execution is timestamped (nanoseconds since the workers
// started) and the events are returned indexed by task ID; Cause is the
// predecessor whose retirement released a task its worker was parked for,
// -1 otherwise.
//
// A pivot the serial kernel would reject is reported as the serial
// kernel's error (errors.As finds its *numeric.NotPositiveDefiniteError),
// an entry of m outside the factor structure as an error naming the
// entry; every worker has exited by the time Run returns.
func (pg *Program) Run(m *sparse.Matrix, k numeric.Kernel, record bool) (*NumericFactor, []TaskEvent, error) {
	if err := k.Valid(); err != nil {
		return nil, nil, err
	}
	if m.Val == nil {
		return nil, nil, fmt.Errorf("exec: matrix has no values")
	}
	if m.N != pg.f.N {
		return nil, nil, fmt.Errorf("exec: dimension mismatch %d vs %d", m.N, pg.f.N)
	}
	val, err := numeric.ScatterA(m, pg.f)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: %w", err)
	}
	r := &run{pg: pg, val: val, kern: k}
	if record {
		r.events = make([]TaskEvent, len(pg.proc))
		//repro:allow nondeterminism -- t0 anchors measurement-only trace timestamps; factor values never see it (TestMeasureRealEvents checks the trace, TestParallelFactorizeBitIdentity pins the numerics)
		r.t0 = time.Now()
	}
	if pg.p == 1 {
		acc := make([]float64, pg.f.N)
		var prev int64
		for t := 0; t < len(pg.proc) && r.err == nil; t++ {
			r.err = r.exec(acc, int32(t), 0, -1, &prev)
		}
	} else {
		r.parallel()
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return &NumericFactor{F: pg.f, Val: r.val}, r.events, nil
}

// parallel starts one worker per processor that owns a task and waits for
// all of them.
func (r *run) parallel() {
	pg := r.pg
	r.pending = make([]atomic.Int32, len(pg.indeg))
	ready := make([]minHeap, pg.p) // ascending ids, so already heap-ordered
	for t, d := range pg.indeg {
		r.pending[t].Store(d)
		if d == 0 {
			ready[pg.proc[t]] = append(ready[pg.proc[t]], heapItem{id: int32(t)})
		}
	}
	r.queues = make([]*readyQueue, pg.p)
	for w := range r.queues {
		if pg.own[w] > 0 {
			r.queues[w] = &readyQueue{wake: make(chan struct{}, 1), heap: ready[w], wokenFor: -1}
		}
	}
	var wg sync.WaitGroup
	for w, q := range r.queues {
		if q == nil {
			continue
		}
		wg.Add(1)
		//repro:allow nondeterminism -- one worker per processor over the task DAG; a column's updates are applied in the serial order, ascending source column, inside one task and tasks are ordered by their dependency counters, pinned bitwise by TestParallelFactorizeBitIdentity under -race
		go func(w int32) {
			defer wg.Done()
			r.work(w)
		}(int32(w))
	}
	wg.Wait()
}

// run is the state of one Program.Run.
type run struct {
	pg      *Program
	val     []float64
	kern    numeric.Kernel
	pending []atomic.Int32 // task -> predecessors still running
	queues  []*readyQueue  // one per worker; nil for a worker with no task

	aborted  atomic.Bool
	failOnce sync.Once
	err      error

	events []TaskEvent // by task ID; nil unless recording
	t0     time.Time
}

// readyQueue is one worker's heap of ready task IDs, lowest first (every
// key 0). Any worker pushes; only the owner pops and parks.
type readyQueue struct {
	wake chan struct{} // one slot: a token sent before the owner parks is kept

	mu     sync.Mutex
	heap   minHeap
	parked bool
	// wokenFor is the task whose push unparked the owner and wokenBy the
	// predecessor that pushed it.
	wokenFor, wokenBy int32
}

// signal unparks the owner. The slot is free whenever a push found the
// owner parked; it can be taken only by fail's token, which wakes it too.
func (q *readyQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// push adds ready task t, released by the retirement of task by, and wakes
// the owner if it was parked.
func (q *readyQueue) push(t, by int32) {
	q.mu.Lock()
	q.heap.push(0, t)
	wake := q.parked
	if wake {
		q.parked = false
		q.wokenFor, q.wokenBy = t, by
	}
	q.mu.Unlock()
	if wake {
		q.signal()
	}
}

// pop removes the lowest ready task and the predecessor that woke the
// owner for it (-1 if none); with nothing ready it marks the owner parked
// and returns ok false.
func (q *readyQueue) pop() (t, cause int32, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.heap) == 0 {
		q.parked = true
		return 0, -1, false
	}
	t = q.heap.pop().id
	cause = -1
	if t == q.wokenFor {
		cause, q.wokenFor = q.wokenBy, -1
	}
	return t, cause, true
}

// fail records the first error and stops every worker.
func (r *run) fail(err error) {
	r.failOnce.Do(func() {
		r.err = err
		r.aborted.Store(true)
		for _, q := range r.queues {
			if q != nil {
				q.signal()
			}
		}
	})
}

// work is worker w's loop: run own ready tasks until all are done, park
// when none is ready.
func (r *run) work(w int32) {
	pg := r.pg
	q := r.queues[w]
	acc := make([]float64, pg.f.N)
	var prev int64
	for left := pg.own[w]; left > 0; {
		if r.aborted.Load() {
			return
		}
		t, cause, ok := q.pop()
		if !ok {
			<-q.wake
			continue
		}
		if err := r.exec(acc, t, w, cause, &prev); err != nil {
			r.fail(err)
			return
		}
		left--
		for _, s := range pg.succ[pg.succPtr[t]:pg.succPtr[t+1]] {
			if r.pending[s].Add(-1) == 0 {
				r.queues[pg.proc[s]].push(s, t)
			}
		}
	}
}

// exec runs task t on worker w, recording its event when asked; prev is
// the worker's previous finish time.
func (r *run) exec(acc []float64, t, w, cause int32, prev *int64) error {
	if r.events == nil {
		return r.task(acc, t)
	}
	start := time.Since(r.t0).Nanoseconds()
	if err := r.task(acc, t); err != nil {
		return err
	}
	finish := time.Since(r.t0).Nanoseconds()
	r.events[t] = TaskEvent{
		Task: t, Proc: w,
		Start: start, Finish: finish,
		Work:  finish - start,
		Stall: start - *prev, Cause: cause,
	}
	*prev = finish
	return nil
}

// task runs task t's runs in ascending position, so a run finds the
// task's own earlier columns final; acc is the worker's dense accumulator,
// as in numeric.Factorize. A rejected pivot is reported under this
// package's name.
func (r *run) task(acc []float64, t int32) error {
	pg := r.pg
	for _, s := range pg.runs[pg.runPtr[t]:pg.runPtr[t+1]] {
		if err := r.kern.Segment(pg.f, r.val, acc, int(s.j), int(s.lo), int(s.hi)); err != nil {
			return fmt.Errorf("exec: %w", err)
		}
	}
	return nil
}
