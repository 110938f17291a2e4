// Package exec studies the effect the paper's metrics deliberately leave
// out: dependency delays. Section 4 argues that "if the number of
// processors is relatively small compared to the number of schedulable
// units, then the allocation scheme described here provides enough
// parallelism to keep the idle time to a minimum"; this package tests that
// claim two ways.
//
// Makespan simulation: every task (unit block, or column for wrap mapping)
// runs on its assigned processor for a duration equal to its work;
// processors execute their tasks in the static scan order and stall until
// a task's predecessors complete. The resulting makespan, idle fraction
// and delay-aware efficiency refine the paper's A-based efficiency bound.
//
// Parallel execution: Compile (any column-partitioned task graph) and
// CompileBlocks (the unit blocks of a core.Partition under a schedule) lay
// a task graph out as a Program, which factorizes with one worker per
// processor synchronizing only on the graph's dependency counters. Every
// column's updates replay the serial left-looking order, so the factor is
// bit-for-bit numeric.Factorize's — which proves the dependency graph of
// core.Partition sufficient for correct parallel execution and makes the
// simulated schedule the one that actually runs.
package exec

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/symbolic"
)

// Task is a schedulable piece of work for the makespan simulation.
type Task struct {
	ID    int
	Proc  int32
	Work  int64
	Preds []int32
}

// SimResult summarizes a makespan simulation.
type SimResult struct {
	P         int
	Makespan  int64
	TotalWork int64
	// Idle is the summed processor idle time, P*Makespan - TotalWork.
	Idle int64
	// Efficiency is TotalWork / (P * Makespan).
	Efficiency float64
	// Comm is the summed communication time charged to tasks: zero without
	// a CommModel, and included in TotalWork (as busy time) with one.
	Comm int64
}

// SimOptions selects the variant of Simulate. The zero value is the
// compute-only simulation with static per-processor order and no tracing;
// each field switches one axis of the {static, dynamic} x {compute, comm} x
// {plain, traced} cube on.
type SimOptions struct {
	// Dynamic makes each idle processor start its highest-priority *ready*
	// task (priority = bottom level, the classical critical-path heuristic)
	// instead of stalling on the static scan order. Comparing the two
	// separates stalls caused by the intra-processor order from stalls
	// intrinsic to the dependency graph and the assignment.
	Dynamic bool
	// Comm charges task i Comm.Cost(Vol[i], Msgs[i]) on top of its work;
	// the result's TotalWork (and Efficiency) then count communication as
	// busy time and Comm reports its share. A zero model charges nothing
	// and copies nothing: the run is the compute-only one, bit for bit.
	Comm CommModel
	// Vol and Msgs are the per-task fetch volumes and consolidated message
	// counts Comm prices. Either may be nil (that term is not charged);
	// non-nil slices must align with tasks by ID.
	Vol, Msgs []int64
	// Probe, when non-nil, receives one TaskEvent per task (in ID order
	// from the static simulation, at its start time from the dynamic one)
	// with the duration split into compute and communication. Probes
	// observe only; with a nil probe no event is built.
	Probe Probe
}

// Simulate runs the dependency-delay list simulation of tasks on p
// processors: every task runs on its assigned processor for a duration
// equal to its work (plus its communication cost under o.Comm) once its
// predecessors have finished. Tasks must be topologically ordered by ID
// (predecessor IDs smaller than successor IDs); the unit-block, column and
// tile-segment task graphs satisfy this by construction.
func Simulate(tasks []Task, p int, o SimOptions) SimResult {
	if o.Vol != nil && len(o.Vol) != len(tasks) {
		panic(fmt.Sprintf("exec: %d fetch volumes for %d tasks", len(o.Vol), len(tasks)))
	}
	if o.Msgs != nil && len(o.Msgs) != len(tasks) {
		panic(fmt.Sprintf("exec: %d message counts for %d tasks", len(o.Msgs), len(tasks)))
	}
	var per []int64
	var comm int64
	if !o.Comm.IsZero() {
		tasks, per, comm = inflateTasks(tasks, o.Comm, o.Vol, o.Msgs)
	}
	var res SimResult
	if o.Dynamic {
		res = simulateDynamic(tasks, p, per, o.Probe)
	} else {
		res = simulateStatic(tasks, p, per, o.Probe)
	}
	res.Comm = comm
	return res
}

// simulateStatic is the static-order core of Simulate: processors execute
// their tasks in scan (ID) order. comm, when non-nil, holds the
// communication share of each task's Work (already included in it) so
// events can split the duration; it never changes the simulated times.
func simulateStatic(tasks []Task, p int, comm []int64, probe Probe) SimResult {
	sched.MustProcs("exec", p)
	procFree := make([]int64, p)
	finish := make([]int64, len(tasks))
	var total int64
	for i := range tasks {
		t := &tasks[i]
		if t.ID != i {
			panic(fmt.Sprintf("exec: task %d out of order", t.ID))
		}
		free := procFree[t.Proc]
		start := free
		cause := int32(-1)
		for _, pr := range t.Preds {
			if int(pr) >= i {
				panic(fmt.Sprintf("exec: task %d depends on later task %d", i, pr))
			}
			if finish[pr] > start {
				start = finish[pr]
				cause = pr
			}
		}
		finish[i] = start + t.Work
		procFree[t.Proc] = finish[i]
		total += t.Work
		if probe != nil {
			var c int64
			if comm != nil {
				c = comm[i]
			}
			probe.OnTask(TaskEvent{
				Task: int32(i), Proc: t.Proc,
				Start: start, Finish: finish[i],
				Work: t.Work - c, Comm: c,
				Stall: start - free, Cause: cause,
			})
		}
	}
	var span int64
	for _, f := range procFree {
		if f > span {
			span = f
		}
	}
	return finalize(p, span, total)
}

// BlockTasks converts a partitioned, scheduled factorization into makespan
// tasks (one per unit block).
func BlockTasks(part *core.Partition, s *sched.Schedule) []Task {
	tasks := make([]Task, len(part.Units))
	for i := range part.Units {
		u := &part.Units[i]
		tasks[i] = Task{ID: i, Proc: s.UnitProc[i], Work: u.Work, Preds: u.Preds}
	}
	return tasks
}

// ColumnTasksMapped builds the task graph of a column-granular mapping:
// one task per column, run by owner[j] and depending on every column of
// its row structure.
func ColumnTasksMapped(f *symbolic.Factor, ops *model.Ops, elemWork []int64, owner []int32) []Task {
	colWork := model.ColumnWork(f, elemWork)
	tasks := make([]Task, f.N)
	for j := 0; j < f.N; j++ {
		tasks[j] = Task{
			ID:    j,
			Proc:  owner[j],
			Work:  colWork[j],
			Preds: ops.RowCols(j),
		}
	}
	return tasks
}

// CriticalPath returns the longest work-weighted path through the task
// graph, the P-independent lower bound on the makespan.
func CriticalPath(tasks []Task) int64 {
	longest := make([]int64, len(tasks))
	var best int64
	for i := range tasks {
		var in int64
		for _, pr := range tasks[i].Preds {
			if longest[pr] > in {
				in = longest[pr]
			}
		}
		longest[i] = in + tasks[i].Work
		if longest[i] > best {
			best = longest[i]
		}
	}
	return best
}

// NumericFactor is the numeric output of the parallel execution; Val
// aligns with the row indices of the symbolic structure F.
type NumericFactor struct {
	F   *symbolic.Factor
	Val []float64
}
