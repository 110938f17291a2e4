package exec

import (
	"fmt"
	"math"
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
// (CompileBlocks). Compile validates the graph once and lays it out as
// flat arrays; Run then factorizes any matrix with the factor's pattern,
// any number of times and from any number of goroutines at once, doing no
// per-run work beyond scattering the values and resetting the dependency
// counters.
//
// The factor a Run produces is bit-for-bit equal to the serial kernel's
// (numeric.Factorize or FactorizeLDL): every column's updates are applied
// in ascending source column (the factor's row index, the order of
// model.Ops.ForEachRun) with the identical association, so every element
// sees exactly the serial sequence of floating-point operations however
// the tasks interleave.
// That makes the run deterministic and the comm-aware makespan simulators
// falsifiable — the task graph they predict is what actually runs.
type Program struct {
	f *symbolic.Factor
	p int

	proc []int32 // task -> worker
	// col is the column of a task that owns every element of one column
	// and nothing else: it is one numeric.Kernel.Column step. Any other
	// task (a 2D tile segment, a unit block) has col -1 and lists its
	// elements in elems[elemPtr[t]:elemPtr[t+1]], ascending — column by
	// column.
	col     []int32
	elemPtr []int32
	elems   []int32

	indeg   []int32 // task -> number of predecessors
	succPtr []int32 // successors of t are succ[succPtr[t]:succPtr[t+1]]
	succ    []int32
	own     []int32 // worker -> number of tasks

	colOf []int32 // factor position -> column (Factor.ColIndex)
}

// Compile validates a task graph for the factor f on p workers and lays it
// out for execution. tasks must be topologically ordered by ID with
// processors in [0, p), and elemTask must assign every factor position to
// a task whose predecessors own the sources of its updates and the
// diagonals it scales by; malformed inputs are reported as errors, never
// as panics or races.
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
		col:     make([]int32, nt),
		elemPtr: make([]int32, nt+1),
		indeg:   make([]int32, nt),
		succPtr: make([]int32, nt+1),
		own:     make([]int32, p),
		colOf:   f.ColIndex(),
	}
	// Find every task's column (-1 none yet, manyCols several) and count
	// its elements (into elemPtr[t+1], prefix-summed below).
	const manyCols = -2
	for i := range pg.col {
		pg.col[i] = -1
	}
	for q, t := range elemTask {
		if t < 0 || int(t) >= nt {
			return nil, fmt.Errorf("exec: position %d mapped to out-of-range task %d", q, t)
		}
		if j := pg.colOf[q]; pg.col[t] == -1 {
			pg.col[t] = j
		} else if pg.col[t] != j {
			pg.col[t] = manyCols
		}
		pg.elemPtr[t+1]++
	}
	for t := 0; t < nt; t++ {
		if j := pg.col[t]; j >= 0 && int(pg.elemPtr[t+1]) == f.ColLen(int(j)) {
			pg.elemPtr[t+1] = 0 // a whole column needs no element list
		} else {
			pg.col[t] = -1
		}
		pg.elemPtr[t+1] += pg.elemPtr[t]
	}
	pg.elems = make([]int32, pg.elemPtr[nt])
	fill := append([]int32(nil), pg.elemPtr[:nt]...)
	for q, t := range elemTask {
		if pg.col[t] < 0 {
			pg.elems[fill[t]] = int32(q)
			fill[t]++
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
// A pivot the serial kernel would reject is reported as an error naming
// the same column, an entry of m outside the factor structure as an error
// naming the entry; every worker has exited by the time Run returns.
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
		k := r.newKernel()
		var prev int64
		for t := 0; t < len(pg.proc) && r.err == nil; t++ {
			r.err = r.exec(k, int32(t), 0, -1, &prev)
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
	ready := make([][]int32, pg.p) // ascending, so already heap-ordered
	for t, d := range pg.indeg {
		r.pending[t].Store(d)
		if d == 0 {
			ready[pg.proc[t]] = append(ready[pg.proc[t]], int32(t))
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

// readyQueue is one worker's min-heap of ready task IDs. Any worker
// pushes; only the owner pops and parks.
type readyQueue struct {
	wake chan struct{} // one slot: a token sent before the owner parks is kept

	mu     sync.Mutex
	heap   []int32
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
	h := append(q.heap, t)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up] <= h[i] {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	q.heap = h
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
	h := q.heap
	if len(h) == 0 {
		q.parked = true
		return 0, -1, false
	}
	t = h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	q.heap = h
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
	k := r.newKernel()
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
		if err := r.exec(k, t, w, cause, &prev); err != nil {
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
func (r *run) exec(k *kernel, t, w, cause int32, prev *int64) error {
	if r.events == nil {
		return k.task(t)
	}
	start := time.Since(r.t0).Nanoseconds()
	if err := k.task(t); err != nil {
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

// kernel is one worker's numeric state: the dense accumulator of the
// column in progress, as in numeric.Factorize, and for partial tasks the
// stamp that marks the rows the task owns.
type kernel struct {
	r     *run
	w     []float64
	stamp []int32
	round int32
}

func (r *run) newKernel() *kernel {
	k := &kernel{r: r, w: make([]float64, r.pg.f.N)}
	if len(r.pg.elems) > 0 {
		k.stamp = make([]int32, r.pg.f.N)
	}
	return k
}

// task runs task t: a whole column as the serial kernel's own step (a
// rejected pivot reported under this package's name), any other task as
// its column segments in ascending column order, so a segment finds the
// task's own earlier columns final.
func (k *kernel) task(t int32) error {
	r := k.r
	pg := r.pg
	if j := int(pg.col[t]); j >= 0 {
		if d, ok := r.kern.Column(pg.f, r.val, k.w, j); !ok {
			return checkPivot(d, j, r.kern == numeric.KernelLDL)
		}
		return nil
	}
	elems := pg.elems[pg.elemPtr[t]:pg.elemPtr[t+1]]
	for len(elems) > 0 {
		j, n := pg.colOf[elems[0]], 1
		for n < len(elems) && pg.colOf[elems[n]] == j {
			n++
		}
		if err := k.partial(int(j), elems[:n]); err != nil {
			return err
		}
		elems = elems[n:]
	}
	return nil
}

// partial runs one column segment — the rows of column j a task owns
// (elems, ascending positions): it applies the column's updates to them in
// the serial order, ascending source column over the factor's row index,
// the stamp filtering every source column down to those rows, then scales
// them. It is the one update loop beside numeric's: same sources, same
// order, same multiplier, so a segment's elements get the serial bits.
func (k *kernel) partial(j int, elems []int32) error {
	pg, val, w, stamp := k.r.pg, k.r.val, k.w, k.stamp
	f := pg.f
	k.round++
	round := k.round
	for _, q := range elems {
		i := f.RowInd[q]
		w[i] = val[q]
		stamp[i] = round
	}
	ldl := k.r.kern == numeric.KernelLDL
	ri := f.Rows()
	pos := ri.Pos[ri.Ptr[j]:ri.Ptr[j+1]]
	for t, c := range ri.Cols[ri.Ptr[j]:ri.Ptr[j+1]] {
		p, end := int(pos[t]), f.ColPtr[c+1]
		rs, vs := f.RowInd[p:end], val[p:end]
		// The multiplier — L[j,c], times D[c] for LDLᵀ — is loaded lazily,
		// on the first row this task owns: the update (i, j) <- (i, c),
		// (j, c) then guarantees both source tasks are among this task's
		// predecessors, so the reads are synchronized. A source touching
		// none of the task's rows must not read column c at all — its tasks
		// may still be in flight.
		loaded := false
		var l float64
		for x, i := range rs {
			if stamp[i] != round {
				continue
			}
			if !loaded {
				l = vs[0]
				if ldl {
					l = val[f.ColPtr[c]] * vs[0]
				}
				loaded = true
			}
			w[i] -= vs[x] * l
		}
	}
	diag := int32(f.ColPtr[j])
	var d float64
	if elems[0] == diag {
		// This task owns the diagonal: compute the pivot and scale its own
		// off-diagonal elements.
		d = w[j]
		if err := checkPivot(d, j, ldl); err != nil {
			return err
		}
		if !ldl {
			d = math.Sqrt(d)
		}
		val[diag] = d
		elems = elems[1:]
	} else {
		// The diagonal belongs to another task; the scale dependency
		// (ForEachScale in the tile graph, CompileBlocks' diagonal edges)
		// guarantees it is final.
		d = val[diag]
	}
	for _, q := range elems {
		val[q] = w[f.RowInd[q]] / d
	}
	return nil
}

// checkPivot applies the serial kernels' pivot rule to column j's updated
// diagonal: finite and positive for Cholesky, finite and nonzero for LDLᵀ.
func checkPivot(v float64, j int, ldl bool) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 || (!ldl && v < 0) {
		want := "positive"
		if ldl {
			want = "nonzero"
		}
		return fmt.Errorf("exec: unusable pivot %g at column %d (want finite %s)", v, j, want)
	}
	return nil
}
