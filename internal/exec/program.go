package exec

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/numeric"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// Program is the compiled form of one task graph over one symbolic factor:
// the merged tile-segment graph of a 2D tile schedule (part2d.Tasks), the
// column graph of a column-granular schedule (ColumnTasksMapped, or
// part2d.Tasks on a col2d lift, with a nil element map) or the unit-block
// graph of a block schedule (BlockTasks with elemTask =
// core.Partition.ElemUnit, over the partition's own factor), laid out
// once as flat arrays. Run then factorizes any matrix with the factor's
// pattern, any number of times and from any number of goroutines at once,
// doing no per-run work beyond scattering the values and resetting the
// dependency counters.
//
// A task is a list of numeric.Step records, each a run of consecutive
// positions of one column — a whole column, a tile's rows of it, a unit
// block's band — and the range of source columns it applies, which the
// task runs through numeric.Kernel.Step, the serial kernel's own loop. So
// the factor a Run produces is bit-for-bit the serial kernel's however the
// columns are cut and the tasks interleave: every element takes its
// updates in ascending source column (the order of model.Ops.ForEachRun)
// with the same association. That makes the run deterministic and the
// comm-aware makespan simulators falsifiable — the task graph they
// predict is what actually runs.
//
// The graph that runs is the caller's plus the scale rule's edges (see
// preds): a run below its column's diagonal waits for the task that
// holds the diagonal. Column and 2D tile graphs carry those edges already,
// so the rule adds none to them; a unit-block graph gets them here.
//
// In a column graph (compiled with a nil element map: task j is column j
// and waits on its elimination-tree children) on more than one worker a
// column whose last source — the largest c with L[j,c] != 0, always its
// largest child — belongs to another worker and comes after much more
// work runs as two tasks on its owner (see split): the first
// half applies the earlier sources as soon as they are final and leaves
// exact partial sums in the column, the second waits for the last source
// and finishes. So wrap's alternating chains no longer stall a worker
// for the whole of the other's previous column. The graph's tasks,
// owners, traffic and span do not change, and Run still reports one
// event per task of the graph.
//
// The edges are held once: a one-worker program keeps none (see inline),
// any other its predecessors transposed into one successor list.
type Program struct {
	f *symbolic.Factor
	p int

	// tasks is the caller's graph, held, not copied: each task's worker,
	// and at P = 1 all the program knows of its edges.
	tasks []Task
	// The steps of task t are steps[stepPtr[t]:stepPtr[t+1]], ascending.
	// A column graph holds no stepPtr and only its split columns' steps
	// (see taskSteps).
	stepPtr []int32
	steps   []numeric.Step
	// first[k] is the graph task of split column k, whose first half is
	// program task len(tasks)+k. Empty unless Compile split a column.
	first []int32

	// The edges of a program on more than one worker: the successors of
	// task t are succ[succPtr[t]:succPtr[t+1]], ascending.
	indeg   []int32 // task -> number of predecessors
	own     []int32 // worker -> number of tasks
	succPtr []int32
	succ    []int32
	// half[j] is split column j's first-half task, or -1 (nil when no
	// column split).
	half []int32
}

// splitRatio is the split rule: a column splits when the updates of its
// sources before the remote last one number at least splitRatio times
// that source's updates plus the column's own length (its pivot and
// scale). Below it the first half is too short to cover the wait and
// only adds a task. On Grid9(120,120) under wrap at P = 2, 4 splits 3 970
// of 14 400 columns; on a two-vCPU Xeon the benchmark's P = 2 factor read
// 17.4–19.6 ms at 4, 18.3–21.1 at 16 and 19.9–21.6 splitting every column
// whose last source is remote (four runs each, interleaved).
const splitRatio = 4

// Compile lays out a task graph for the factor f on p workers; elemTask
// assigns every factor position to a task. It is the one way into the
// engine. A nil elemTask declares a column graph, ColumnTasksMapped's:
// task j is column j, whole, and waits on its elimination-tree children,
// ascending. Compile checks that in O(n), reports any other graph under a
// nil map as an error and splits only such a graph's columns (see split);
// a map, even the column index, takes the general step layout and never
// splits. Compile checks the shape — every task's predecessors earlier in
// the slice (by index), processors in [0, p), every position mapped to a
// task in range, every diagonal a step scales by held by an earlier task —
// and reports a malformed one as an error. It does not check that a task's
// predecessors own the sources of its updates: that is the constructors'
// contract (ColumnTasksMapped, part2d.Tasks, BlockTasks), pinned by the
// bit-identity tests, and Measure checks every run bitwise. The program
// holds tasks, not a copy, so they must not change while it is in use (a
// Plan never changes its Tasks); f's row index is built here.
func Compile(f *symbolic.Factor, p int, tasks []Task, elemTask []int32) (*Program, error) {
	if err := sched.CheckProcs("exec", p); err != nil {
		return nil, err
	}
	nt := len(tasks)
	pg := &Program{f: f, p: p, tasks: tasks}
	switch {
	case elemTask == nil && nt != f.N:
		return nil, fmt.Errorf("exec: a column graph (nil element map) has one task per column: %d tasks, %d columns", nt, f.N)
	case elemTask != nil && len(elemTask) != f.NNZ():
		return nil, fmt.Errorf("exec: element-task map covers %d positions, factor has %d", len(elemTask), f.NNZ())
	case elemTask != nil:
		// A column graph lays out no step (see taskSteps). Any other: a
		// run starts at each column's first position and wherever the task
		// changes. Count each task's runs (prefix-summed below), then fill
		// them in ascending position, each a step over all of its column's
		// sources.
		pg.stepPtr = make([]int32, nt+1)
		for j := 0; j < f.N; j++ {
			for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
				if t := elemTask[q]; t < 0 || int(t) >= nt {
					return nil, fmt.Errorf("exec: position %d mapped to out-of-range task %d", q, t)
				} else if q == f.ColPtr[j] || t != elemTask[q-1] {
					pg.stepPtr[t+1]++
				}
			}
		}
		for t := 0; t < nt; t++ {
			pg.stepPtr[t+1] += pg.stepPtr[t]
		}
		pg.steps = make([]numeric.Step, pg.stepPtr[nt])
		fill := append([]int32(nil), pg.stepPtr[:nt]...)
		for j := 0; j < f.N; j++ {
			for q, end := f.ColPtr[j], f.ColPtr[j+1]; q < end; {
				t, hi := elemTask[q], q+1
				for hi < end && elemTask[hi] == t {
					hi++
				}
				pg.steps[fill[t]] = numeric.Step{J: int32(j), Lo: int32(q), Hi: int32(hi), To: int32(j), W: 1, Finish: true}
				fill[t]++
				q = hi
			}
		}
	}
	f.Rows() // built here, not by the first task to need it
	preds, err := pg.preds(tasks, elemTask)
	if err != nil {
		return nil, err
	}
	if elemTask == nil && !pg.tree(preds) {
		return nil, fmt.Errorf("exec: a column graph (nil element map) must wait on exactly its elimination-tree children, ascending")
	}
	if p == 1 {
		return pg, nil
	}
	if elemTask == nil {
		preds = pg.split(preds)
	}
	n := pg.Tasks()
	pg.own = make([]int32, p)
	for t := range n {
		pg.own[tasks[pg.graphTask(int32(t))].Proc]++
	}
	pg.indeg, pg.succPtr, pg.succ = transpose(n, func(t int) []int32 { return preds[t] })
	return pg, nil
}

// transpose returns the successor lists of the n tasks whose predecessors
// are preds(i), the successors of task t succ[succPtr[t]:succPtr[t+1]] in
// ascending task order, and every task's number of predecessors.
func transpose(n int, preds func(i int) []int32) (indeg, succPtr, succ []int32) {
	indeg, succPtr = make([]int32, n), make([]int32, n+1)
	for i := range n {
		ps := preds(i)
		indeg[i] = int32(len(ps))
		for _, pr := range ps {
			succPtr[pr+1]++
		}
	}
	for t := 0; t < n; t++ {
		succPtr[t+1] += succPtr[t]
	}
	succ = make([]int32, succPtr[n])
	fill := slices.Clone(succPtr[:n])
	for i := range n {
		for _, pr := range preds(i) {
			succ[fill[pr]] = int32(i)
			fill[pr]++
		}
	}
	return indeg, succPtr, succ
}

// taskSteps returns program task t's steps. A column graph holds no
// stepPtr: split column k's halves are steps[2k] (program task
// len(tasks)+k) and steps[2k+1] (its graph task), and any other task's
// one step is its column, written into buf.
func (pg *Program) taskSteps(t int32, buf *[1]numeric.Step) []numeric.Step {
	nt := int32(len(pg.tasks))
	switch {
	case pg.stepPtr != nil:
		return pg.steps[pg.stepPtr[t]:pg.stepPtr[t+1]]
	case t >= nt:
		return pg.steps[2*(t-nt):][:1]
	case pg.half != nil && pg.half[t] >= 0:
		return pg.steps[2*(pg.half[t]-nt)+1:][:1]
	}
	f := pg.f
	buf[0] = numeric.Step{J: t, Lo: int32(f.ColPtr[t]), Hi: int32(f.ColPtr[t+1]), To: t, W: 1, Finish: true}
	return buf[:]
}

// tree reports whether preds, a column graph's, are the elimination tree
// of the factor: every task waits on children of its column only,
// ascending, and all of them together on every non-root column.
func (pg *Program) tree(preds [][]int32) bool {
	edges := 0
	for t, ps := range preds {
		for k, c := range ps {
			if pg.f.Parent[c] != t || k > 0 && ps[k-1] >= c {
				return false
			}
		}
		edges += len(ps)
	}
	for _, p := range pg.f.Parent {
		if p >= 0 {
			edges--
		}
	}
	return edges == 0
}

// successors returns the program tasks that wait for task t.
func (pg *Program) successors(t int32) []int32 { return pg.succ[pg.succPtr[t]:pg.succPtr[t+1]] }

// preds checks the caller's graph — processors in [0, p), predecessors
// strictly earlier in the slice (by index) — and returns every task's
// predecessors under the scale rule: a step that starts below its
// column's diagonal scales by it, so its task also waits for the task
// holding it, which must be an earlier one. A task's list is the caller's
// own when it lacks no such task, and a copy with the missing ones
// appended otherwise: the caller's lists (core.Unit.Preds for a block
// graph) are never written. A step that starts at its diagonal reads no
// entry of elemTask, so a column graph's nil map is never indexed. The
// simulators panic on a malformed graph (they only ever see graphs the
// package itself built); the engine takes caller-supplied ones and
// returns errors.
func (pg *Program) preds(tasks []Task, elemTask []int32) ([][]int32, error) {
	f := pg.f
	preds := make([][]int32, len(tasks))
	var seen []int32 // seen[v] == t+1: v is task t or already precedes it
	for t := range tasks {
		ps, mark := tasks[t].Preds, int32(t+1)
		if w := tasks[t].Proc; w < 0 || int(w) >= pg.p {
			return nil, fmt.Errorf("exec: task %d: processor %d out of range [0, %d)", t, w, pg.p)
		}
		for _, pr := range ps {
			if pr < 0 || int(pr) >= t {
				return nil, fmt.Errorf("exec: task %d depends on non-earlier task %d", t, pr)
			}
		}
		var buf [1]numeric.Step
		for _, s := range pg.taskSteps(int32(t), &buf) {
			diag := f.ColPtr[s.J]
			if int(s.Lo) == diag || elemTask[diag] == int32(t) {
				continue
			}
			d := elemTask[diag]
			if seen == nil {
				seen = make([]int32, len(tasks))
			}
			if seen[t] != mark {
				seen[t] = mark
				for _, pr := range ps {
					seen[pr] = mark
				}
				ps = ps[:len(ps):len(ps)] // appending copies
			}
			if seen[d] != mark {
				if int(d) > t {
					return nil, fmt.Errorf("exec: task %d scales by the diagonal of column %d, held by later task %d", t, s.J, d)
				}
				seen[d] = mark
				ps = append(ps, d)
			}
		}
		preds[t] = ps
	}
	return preds, nil
}

// split picks the columns of a tree-shaped column graph that run as two
// tasks and returns preds with the waits of both halves. A column splits
// when its last source, its largest child last, runs on another worker
// and the sources before last carry at least splitRatio times last's
// updates plus the column's length. Split column k's first half — program
// task len(tasks)+k, a step over the sources before last — waits on the
// column's other children and on those children of last that are sources
// of the column: the column's row structure is closed upward in the tree,
// so every source below last lies in one of their subtrees. Its second
// half, the graph task's step now starting at last, waits on the first
// half and on last.
func (pg *Program) split(preds [][]int32) [][]int32 {
	tasks, f, ri := pg.tasks, pg.f, pg.f.Rows()
	nt := int32(len(tasks))
	// The halves' waits, back to back (a cut stays valid when waits
	// grows); split column k's first half's end at ends[k], its second
	// half's two follow.
	var waits, ends []int32
	for j := range tasks {
		x, end := ri.RunPtr[j], ri.RunPtr[j+1]
		if x == end {
			continue
		}
		// Source c's updates to column j are its rows from j down, its
		// run's tail; the last source ends the row's last run.
		last := ri.Last[end-1]
		if tasks[last].Proc == tasks[j].Proc {
			continue
		}
		lo, hi := f.ColPtr[j], f.ColPtr[j+1]
		need := splitRatio*(int(ri.Tail[end-1])+hi-lo) + int(ri.Tail[end-1]) // the loop takes the last's off
		for y := x; need > 0 && y < end; y++ {
			need -= int(ri.RunLen[y]) * int(ri.Tail[y])
		}
		if need > 0 {
			continue
		}
		if pg.half == nil {
			pg.half = make([]int32, f.N)
			for c := range pg.half {
				pg.half[c] = -1
			}
			// At most every later column splits; about three waits each.
			waits, ends = make([]int32, 0, 3*(f.N-j)), make([]int32, 0, f.N-j)
		}
		h := nt + int32(len(pg.first))
		pg.first = append(pg.first, int32(j))
		pg.half[j] = h
		s := numeric.Step{J: int32(j), Lo: int32(lo), Hi: int32(hi), To: last, W: 1}
		pg.steps = append(pg.steps, s, numeric.Step{J: s.J, Lo: s.Lo, Hi: s.Hi, From: last, To: s.J, W: 1, Finish: true})
		// The first half waits on j's children but last (tasks[j].Preds,
		// ascending, the scale rule adding no edge to whole columns; the
		// largest source is always the largest child) and on last's
		// children in row j: a run interior column's parent is the next
		// one, so they are the ends of the earlier runs whose parent is
		// last, and last − 1 when last's run holds it.
		ps := tasks[j].Preds
		waits = append(waits, ps[:len(ps)-1]...)
		for ; x < end-1; x++ {
			if f.Parent[ri.Last[x]] == int(last) {
				waits = append(waits, ri.Last[x])
			}
		}
		if ri.RunLen[end-1] > 1 {
			waits = append(waits, last-1)
		}
		ends = append(ends, int32(len(waits)))
		waits = append(waits, h, last)
		preds[j] = waits[len(waits)-2 : len(waits) : len(waits)]
	}
	preds, w := slices.Grow(preds, len(ends)), int32(0)
	for _, e := range ends {
		preds, w = append(preds, waits[w:e:e]), e+2
	}
	return preds
}

// Tasks reports how many tasks a Run executes: one per task of the
// compiled graph, plus one for each split column's first half.
func (pg *Program) Tasks() int { return len(pg.tasks) + len(pg.first) }

// graphTask is the task of the compiled graph that program task t runs
// all or half of.
func (pg *Program) graphTask(t int32) int32 {
	if k := int(t) - len(pg.tasks); k >= 0 {
		return pg.first[k]
	}
	return t
}

// Run factorizes m, whose pattern must be a subset of the program's
// factor structure, with one worker goroutine per processor that owns a
// task. Each worker drains a ready queue of its own tasks, lowest graph
// task first (a split column's first half ranks as its column); the worker
// that retires a task's last predecessor feeds it to its owner's queue,
// waking the owner if it is parked. An owner with nothing ready polls the
// queue's length a bounded while before it parks. A single-processor
// program runs inline (see inline). k selects the kernel; with record set
// every task execution is timestamped (nanoseconds since the workers
// started) and the events are returned indexed by task ID of the compiled
// graph; Cause is the predecessor whose retirement released a task its
// worker was waiting for (for a split column, possibly a child of its last
// source, which its first half waits on), -1 otherwise. A split column's
// two halves fold into its one event: Start and Cause from the first,
// Finish from the second, Work and Stall summed, so Work is the column's
// busy time and Finish-Start may also span other tasks run between the
// halves. At P = 1 a step starts as the one before it finishes, and a
// chunk step's interval is cut into its columns' events, of equal length.
//
// A pivot the serial kernel would reject is reported as the serial
// kernel's error (errors.As finds its *numeric.NotPositiveDefiniteError),
// an entry of m outside the factor structure as an error naming the
// entry; every worker has exited by the time Run returns.
func (pg *Program) Run(m *sparse.Matrix, k numeric.Kernel, record bool) (*NumericFactor, []TaskEvent, error) {
	if err := k.Valid(); err != nil {
		return nil, nil, err
	}
	val, err := numeric.ScatterA(m, pg.f)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: %w", err)
	}
	r := &run{pg: pg, val: val, kern: k}
	if record {
		r.events = make([]TaskEvent, len(pg.tasks))
		//repro:allow nondeterminism -- t0 anchors measurement-only trace timestamps; factor values never see it (TestMeasureRealEvents checks the trace, TestParallelFactorizeBitIdentity pins the numerics)
		r.t0 = time.Now()
	}
	if pg.p == 1 {
		r.inline()
	} else {
		r.parallel()
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return &NumericFactor{F: pg.f, Val: r.val}, r.events, nil
}

// inline runs a one-worker program on the calling goroutine, in one call
// or, recording, a column graph by step and any other program by task.
func (r *run) inline() {
	var acc []float64
	pg := r.pg
	steps, i := pg.inlineSteps(), 0
	if r.events == nil {
		r.err = r.exec(&acc, 0, steps, 0, -1, 0, nil)
		return
	}
	prev := r.now()
	for t := int32(0); int(t) < len(pg.tasks) && r.err == nil; {
		e, next := i+1, t+1
		if pg.stepPtr != nil {
			e = int(pg.stepPtr[t+1])
		} else {
			next = t + int32(steps[i].W)
		}
		r.err = r.exec(&acc, t, steps[i:e], 0, -1, prev, &prev)
		i, t = e, next
	}
}

// inlineSteps is what a one-worker program runs: a column graph's
// numeric.SerialSteps, built per Run, or the program's steps.
func (pg *Program) inlineSteps() []numeric.Step {
	if pg.stepPtr != nil {
		return pg.steps
	}
	return numeric.SerialSteps(pg.f)
}

// parallel starts one worker per processor that owns a task and waits for
// all of them.
func (r *run) parallel() {
	pg := r.pg
	r.pending = make([]atomic.Int32, len(pg.indeg))
	r.queues = make([]*readyQueue, pg.p)
	workers := 0
	for w := range r.queues {
		if pg.own[w] > 0 {
			r.queues[w] = &readyQueue{wake: make(chan struct{}, 1), wokenFor: -1}
			workers++
		}
	}
	// A polling worker holds its processor: with more workers than
	// processors it would keep one with work from running.
	if workers <= runtime.GOMAXPROCS(0) {
		r.poll = pollRounds
	}
	for t, d := range pg.indeg {
		r.pending[t].Store(d)
		if d == 0 {
			g := pg.graphTask(int32(t))
			r.queues[pg.tasks[g].Proc].heap.push(int64(g), int32(t))
		}
	}
	for _, q := range r.queues {
		if q != nil {
			q.n.Store(int32(len(q.heap)))
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

	poll     int // pollRounds, or 0 when the workers outnumber the processors
	aborted  atomic.Bool
	failOnce sync.Once
	err      error

	events []TaskEvent // by graph task ID; nil unless recording
	t0     time.Time
}

// readyQueue is one worker's heap of ready task IDs, keyed by graph task.
// Any worker pushes; only the owner pops, polls and parks.
type readyQueue struct {
	wake chan struct{} // one slot: a token sent before the owner parks is kept
	n    atomic.Int32  // len(heap), for the owner to poll without the lock

	mu    sync.Mutex
	heap  minHeap
	state int8 // busy, polling or parked
	// wokenFor is the task whose push ended the owner's wait and wokenBy
	// the predecessor that pushed it.
	wokenFor, wokenBy int32
}

// The owner's states: running tasks, polling an empty queue, parked on
// wake.
const (
	busy int8 = iota
	polling
	parked
)

// pollRounds bounds how many times an owner with nothing ready reads its
// queue's length before it parks, ≈ 7 µs on a two-vCPU Xeon: longer than
// the other worker takes to finish one column of a wrap chain (≈ 1 µs),
// short enough that a worker whose next task is far off gives its core
// back soon. On Grid9(120,120) under wrap at P = 2 there, 1<<16 rounds
// (≈ 115 µs) ran 5–10 % faster than 1<<12 with two cores free, but with
// the process pinned to one CPU every bound ran slower than parking at
// once, 1<<12 by 7 % in the median of five rounds and 1<<16 by 2.5 ×.
const pollRounds = 1 << 12

// signal unparks the owner. The slot is free whenever a push found the
// owner parked; it can be taken only by fail's token, which wakes it too.
func (q *readyQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// push adds ready task t of graph task key, released by the retirement of
// task by, and wakes the owner if it was parked.
func (q *readyQueue) push(key, t, by int32) {
	q.mu.Lock()
	q.heap.push(int64(key), t)
	q.n.Store(int32(len(q.heap)))
	wake := q.state == parked
	if q.state != busy {
		q.state = busy
		q.wokenFor, q.wokenBy = t, by
	}
	q.mu.Unlock()
	if wake {
		q.signal()
	}
}

// pop removes the lowest ready task and the predecessor that ended the
// owner's wait for it (-1 if none); with nothing ready it marks the owner
// polling and returns ok false.
func (q *readyQueue) pop() (t, cause int32, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.heap) == 0 {
		q.state = polling
		return 0, -1, false
	}
	t = q.heap.pop().id
	q.n.Store(int32(len(q.heap)))
	cause = -1
	if t == q.wokenFor {
		cause, q.wokenFor = q.wokenBy, -1
	}
	return t, cause, true
}

// wait is the owner's wait after pop found nothing ready: it polls the
// queue's length for up to rounds reads, then parks on wake unless a push
// came in meanwhile.
func (q *readyQueue) wait(rounds int, aborted *atomic.Bool) {
	for i := 0; i < rounds && q.n.Load() == 0 && !aborted.Load(); i++ {
	}
	q.mu.Lock()
	park := q.state == polling
	if park {
		q.state = parked
	}
	q.mu.Unlock()
	if park {
		<-q.wake
	}
}

// now is the time since the workers started when recording, 0 otherwise.
func (r *run) now() int64 {
	if r.events == nil {
		return 0
	}
	return time.Since(r.t0).Nanoseconds()
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

// work is worker w's loop: run own ready tasks until all are done, wait
// when none is ready.
func (r *run) work(w int32) {
	pg := r.pg
	q := r.queues[w]
	var acc []float64
	var prev int64
	for left := pg.own[w]; left > 0; {
		if r.aborted.Load() {
			return
		}
		t, cause, ok := q.pop()
		if !ok {
			q.wait(r.poll, &r.aborted)
			continue
		}
		var buf [1]numeric.Step
		if err := r.exec(&acc, t, pg.taskSteps(t, &buf), w, cause, r.now(), &prev); err != nil {
			r.fail(err)
			return
		}
		left--
		for _, s := range pg.successors(t) {
			if r.pending[s].Add(-1) == 0 {
				g := pg.graphTask(s)
				r.queues[pg.tasks[g].Proc].push(g, s, t)
			}
		}
	}
}

// exec runs steps, program task t's or a serial step of column t, on
// worker w, recording their graph tasks' events from start when asked
// (prev: the worker's last finish). A split column's first half opens the
// column's event, Cause (a predecessor) included, and its second half,
// whose step resumes at a source past 0, adds to it.
func (r *run) exec(acc *[]float64, t int32, steps []numeric.Step, w, cause int32, start int64, prev *int64) error {
	if err := r.kern.Step(r.pg.f, r.val, acc, steps...); err != nil {
		return fmt.Errorf("exec: %w", err)
	}
	if r.events == nil {
		return nil
	}
	finish := r.now()
	pg, g, cols := r.pg, r.pg.graphTask(t), int64(1)
	if len(steps) == 1 {
		cols = int64(steps[0].W)
	}
	for c := range cols {
		s, e := start+(finish-start)*c/cols, start+(finish-start)*(c+1)/cols
		ev := &r.events[g+int32(c)]
		if c > 0 || g != t || len(pg.first) == 0 || steps[0].From == 0 {
			*ev = TaskEvent{Task: g + int32(c), Proc: w, Start: s, Cause: cause}
		}
		ev.Finish = e
		ev.Work += e - s
		ev.Stall += s - *prev
		*prev = e
	}
	return nil
}
