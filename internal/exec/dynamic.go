package exec

import (
	"slices"

	"repro/internal/sched"
)

// simulateDynamic is the event-driven core of Simulate: each processor,
// when idle, starts its highest-priority ready assigned task, priority
// being the bottom level (the longest work-weighted path from the task to
// a sink). comm, when non-nil, holds each task's communication cost, which
// its duration adds to its Work. Its allocations do not grow with
// the graph: successors are one CSR array and every heap is sized up front.
func simulateDynamic(tasks []Task, p int, comm []int64, probe Probe) SimResult {
	sched.MustProcs("exec", p)
	n := len(tasks)
	// Successors succ[succPtr[t]:succPtr[t+1]], ascending; indegrees; the
	// number of tasks per processor.
	succPtr, indeg, own := make([]int32, n+1), make([]int32, n), make([]int, p)
	var total int64
	for i := range tasks {
		total += duration(tasks, comm, i)
		indeg[i] = int32(len(tasks[i].Preds))
		own[tasks[i].Proc]++
		for _, pr := range tasks[i].Preds {
			succPtr[pr+1]++
		}
	}
	for i := 0; i < n; i++ {
		succPtr[i+1] += succPtr[i]
	}
	succ, at := make([]int32, succPtr[n]), slices.Clone(succPtr[:n])
	for i := range tasks {
		for _, pr := range tasks[i].Preds {
			succ[at[pr]] = int32(i)
			at[pr]++
		}
	}
	bottom := make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		var out int64
		for _, s := range succ[succPtr[i]:succPtr[i+1]] {
			out = max(out, bottom[s])
		}
		bottom[i] = out + duration(tasks, comm, i)
	}

	// Per-processor ready heaps, keyed on the negated bottom level (larger
	// first, then lower ID), cut from one array at their task counts.
	ready, items := make([]minHeap, p), make(minHeap, n)
	for pr, c := range own {
		ready[pr], items = items[:0:c], items[c:]
	}
	for i := range tasks {
		if indeg[i] == 0 {
			ready[tasks[i].Proc].push(-bottom[i], int32(i))
		}
	}
	// Probe-only state: the finish time of each processor's last completed
	// task (for stall gaps) and the predecessor whose completion made each
	// task ready (the dependency a stalled start is attributed to).
	var lastFinish []int64
	var readyCause []int32
	if probe != nil {
		lastFinish = make([]int64, p)
		readyCause = make([]int32, n)
		for i := range readyCause {
			readyCause[i] = -1
		}
	}
	procBusyUntil := make([]int64, p) // completion time of the running task
	running := make([]int32, p)       // task id or -1
	for i := range running {
		running[i] = -1
	}
	// Completion events keyed on (time, processor); a processor has at most
	// one outstanding.
	events := make(minHeap, 0, p)
	now := int64(0)
	remaining := n
	start := func(proc int) {
		if running[proc] != -1 || len(ready[proc]) == 0 {
			return
		}
		id := ready[proc].pop().id
		running[proc] = id
		d := duration(tasks, comm, int(id))
		procBusyUntil[proc] = now + d
		if probe != nil {
			stall := now - lastFinish[proc]
			cause := int32(-1)
			if stall > 0 {
				// The processor idled past its last finish, so this task
				// started the moment it became ready: the readying
				// predecessor is the dependency it stalled on.
				cause = readyCause[id]
			}
			probe.OnTask(TaskEvent{
				Task: id, Proc: int32(proc),
				Start: now, Finish: procBusyUntil[proc],
				Work: tasks[id].Work, Comm: d - tasks[id].Work,
				Stall: stall, Cause: cause,
			})
		}
		events.push(procBusyUntil[proc], int32(proc))
	}
	for proc := 0; proc < p; proc++ {
		start(proc)
	}
	var span int64
	for remaining > 0 {
		if len(events) == 0 {
			panic("exec: dynamic simulation deadlocked (dependency cycle?)")
		}
		ev := events.pop()
		now = ev.key
		proc := int(ev.id)
		done := running[proc]
		if done == -1 {
			continue // stale event
		}
		running[proc] = -1
		remaining--
		if probe != nil {
			lastFinish[proc] = now
		}
		if now > span {
			span = now
		}
		for _, s := range succ[succPtr[done]:succPtr[done+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				if probe != nil {
					readyCause[s] = done
				}
				sp := tasks[s].Proc
				ready[sp].push(-bottom[s], s)
				if running[sp] == -1 {
					start(int(sp))
				}
			}
		}
		start(proc)
	}
	return finalize(p, span, total)
}

// minHeap is the package's one priority queue: a binary min-heap of (key,
// id) pairs, ordered by key, then id. Every queue built on it — the
// dynamic simulator's ready and event queues, CompileSolve's frontier and
// worker loads, the engine's per-worker ready queue — orders distinct ids,
// so its pop sequence does not depend on how the heap was built.
type minHeap []heapItem

type heapItem struct {
	key int64
	id  int32
}

func (h minHeap) less(a, b int) bool {
	return h[a].key < h[b].key || h[a].key == h[b].key && h[a].id < h[b].id
}

func (h *minHeap) push(key int64, id int32) {
	s := append(*h, heapItem{key, id})
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if !s.less(i, up) {
			break
		}
		s[up], s[i] = s[i], s[up]
		i = up
	}
	*h = s
}

// pop removes and returns the least item; the heap must not be empty.
func (h *minHeap) pop() heapItem {
	s := *h
	top, last := s[0], len(s)-1
	s[0] = s[last]
	s = s[:last]
	s.down(0)
	*h = s
	return top
}

// down restores the heap order below i after its item grew.
func (h minHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
