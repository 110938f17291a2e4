package exec

import (
	"container/heap"
	"fmt"

	"repro/internal/sched"
)

// simulateDynamic is the event-driven core of Simulate: each processor,
// when idle, starts its highest-priority ready assigned task, priority
// being the bottom level (the longest work-weighted path from the task to
// a sink). comm, when non-nil, holds the communication share of each
// task's Work (already included in it) so events can split the duration;
// it never changes the simulated times.
func simulateDynamic(tasks []Task, p int, comm []int64, probe Probe) SimResult {
	sched.MustProcs("exec", p)
	n := len(tasks)
	// Bottom levels, successors and indegrees.
	succs := make([][]int32, n)
	indeg := make([]int, n)
	var total int64
	for i := range tasks {
		if tasks[i].ID != i {
			panic(fmt.Sprintf("exec: task %d out of order", tasks[i].ID))
		}
		total += tasks[i].Work
		for _, pr := range tasks[i].Preds {
			succs[pr] = append(succs[pr], int32(i))
			indeg[i]++
		}
	}
	bottom := make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		var out int64
		for _, s := range succs[i] {
			if bottom[s] > out {
				out = bottom[s]
			}
		}
		bottom[i] = out + tasks[i].Work
	}

	// Per-processor ready heaps ordered by descending bottom level.
	ready := make([]taskHeap, p)
	for i := range tasks {
		if indeg[i] == 0 {
			pr := tasks[i].Proc
			heap.Push(&ready[pr], heapItem{id: int32(i), prio: bottom[i]})
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
	var eventQ eventHeap
	now := int64(0)
	remaining := n
	start := func(proc int) {
		if running[proc] != -1 || ready[proc].Len() == 0 {
			return
		}
		it := heap.Pop(&ready[proc]).(heapItem)
		running[proc] = it.id
		procBusyUntil[proc] = now + tasks[it.id].Work
		if probe != nil {
			stall := now - lastFinish[proc]
			cause := int32(-1)
			if stall > 0 {
				// The processor idled past its last finish, so this task
				// started the moment it became ready: the readying
				// predecessor is the dependency it stalled on.
				cause = readyCause[it.id]
			}
			var c int64
			if comm != nil {
				c = comm[it.id]
			}
			probe.OnTask(TaskEvent{
				Task: it.id, Proc: int32(proc),
				Start: now, Finish: procBusyUntil[proc],
				Work: tasks[it.id].Work - c, Comm: c,
				Stall: stall, Cause: cause,
			})
		}
		heap.Push(&eventQ, event{t: procBusyUntil[proc], proc: int32(proc)})
	}
	for proc := 0; proc < p; proc++ {
		start(proc)
	}
	var span int64
	for remaining > 0 {
		if eventQ.Len() == 0 {
			panic("exec: dynamic simulation deadlocked (dependency cycle?)")
		}
		ev := heap.Pop(&eventQ).(event)
		now = ev.t
		proc := int(ev.proc)
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
		for _, s := range succs[done] {
			indeg[s]--
			if indeg[s] == 0 {
				if probe != nil {
					readyCause[s] = done
				}
				sp := tasks[s].Proc
				heap.Push(&ready[sp], heapItem{id: s, prio: bottom[s]})
				if running[sp] == -1 {
					start(int(sp))
				}
			}
		}
		start(proc)
	}
	return finalize(p, span, total)
}

type heapItem struct {
	id   int32
	prio int64
}

type taskHeap []heapItem

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(a, b int) bool {
	if h[a].prio != h[b].prio {
		return h[a].prio > h[b].prio // larger bottom level first
	}
	return h[a].id < h[b].id
}
func (h taskHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *taskHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *taskHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type event struct {
	t    int64
	proc int32
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(a, b int) bool {
	if h[a].t != h[b].t {
		return h[a].t < h[b].t
	}
	return h[a].proc < h[b].proc
}
func (h eventHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
