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
// Parallel execution: a real multi-goroutine factorization executes the
// unit blocks concurrently, one worker per simulated processor,
// synchronizing only on the block dependency graph. Matching the
// sequential factor numerically proves the dependency graph of
// core.Partition is sufficient for correct parallel execution.
package exec

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/sched"
	"repro/internal/sparse"
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
	mustProcs(p)
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

// ColumnTasks builds the task graph of the wrap-mapped column algorithm:
// one task per column, depending on every column of its row structure.
func ColumnTasks(f *symbolic.Factor, ops *model.Ops, elemWork []int64, p int) []Task {
	mustProcs(p)
	owner := make([]int32, f.N)
	for j := range owner {
		owner[j] = int32(j % p)
	}
	return ColumnTasksMapped(f, ops, elemWork, owner)
}

// ColumnTasksMapped is ColumnTasks for an arbitrary column-to-processor
// assignment (owner[j] is the processor of column j), the task graph of
// any column-granular mapping strategy.
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

// ParallelFactorize executes the numeric factorization concurrently: one
// worker goroutine per processor, each processing its assigned unit blocks
// in scan order, blocking until a block's predecessors (augmented with the
// diagonal-scale dependencies) are complete. The element kernel computes
//
//	L[i,j] = (A[i,j] - sum_{k<j} L[i,k]*L[j,k]) / L[j,j]
//
// by intersecting the row structures of i and j, so a unit only reads
// elements owned by its predecessors or earlier elements of itself.
func ParallelFactorize(m *sparse.Matrix, part *core.Partition, s *sched.Schedule) (*NumericFactor, error) {
	return parallelFactorize(m, part, s, false)
}

// ParallelFactorizeLDL executes the square-root-free LDL^T factorization
// over the same partition, schedule and dependency graph. The paper's
// Section 5 claims the methodology adapts "very easily ... to other
// factoring methods"; this is that adaptation — only the element kernel
// changes. The returned values follow numeric.LDL's convention (diagonal
// positions hold D, off-diagonals hold unit-L entries).
func ParallelFactorizeLDL(m *sparse.Matrix, part *core.Partition, s *sched.Schedule) (*NumericFactor, error) {
	return parallelFactorize(m, part, s, true)
}

func parallelFactorize(m *sparse.Matrix, part *core.Partition, s *sched.Schedule, ldl bool) (*NumericFactor, error) {
	if m.Val == nil {
		return nil, fmt.Errorf("exec: matrix has no values")
	}
	f := part.F
	if m.N != f.N {
		return nil, fmt.Errorf("exec: dimension mismatch")
	}
	if err := checkProcCount(s.P); err != nil {
		return nil, err
	}
	for ui, pr := range s.UnitProc {
		if err := checkProc(pr, s.P); err != nil {
			return nil, fmt.Errorf("exec: unit %d: %w", ui, err)
		}
	}
	ops := model.NewOps(f)
	// Execution dependencies: the update-pair preds plus the unit of the
	// diagonal element of every column a unit touches (for the scale).
	execPreds := make([][]int32, len(part.Units))
	for ui := range part.Units {
		u := &part.Units[ui]
		// Deduplicate in insertion order (never by map iteration — the
		// worker synchronization below must see one deterministic graph),
		// then sort; TestParallelFactorizeDeterminism pins the bit-stability
		// of the resulting factors across runs.
		seen := make(map[int32]bool, len(u.Preds))
		ep := make([]int32, 0, len(u.Preds))
		add := func(pr int32) {
			if !seen[pr] {
				seen[pr] = true
				ep = append(ep, pr)
			}
		}
		for _, pr := range u.Preds {
			add(pr)
		}
		for j := u.ColLo; j <= u.ColHi && j < f.N; j++ {
			if du := part.ElemUnit[f.ColPtr[j]]; int(du) != ui {
				add(du)
			}
		}
		sort.Slice(ep, func(a, b int) bool { return ep[a] < ep[b] })
		execPreds[ui] = ep
	}
	// Per-processor unit lists in scan (ID) order.
	perProc := make([][]int, s.P)
	for ui, pr := range s.UnitProc {
		perProc[pr] = append(perProc[pr], ui)
	}
	// Unit -> its elements (positions), grouped by column in ascending
	// column then row order, which is the order ElemUnit was built in.
	unitElems := make([][]int32, len(part.Units))
	for q := range part.ElemUnit {
		u := part.ElemUnit[q]
		unitElems[u] = append(unitElems[u], int32(q))
	}
	val := numeric.ScatterA(m, f)
	colOf := numeric.ColIndex(f)
	// position lookup: for (r, c) find the value index.
	posOf := func(r, c int) int {
		col := f.Col(c)
		lo, hi := 0, len(col)
		for lo < hi {
			mid := (lo + hi) / 2
			if col[mid] < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return f.ColPtr[c] + lo
	}

	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	done := make([]bool, len(part.Units))
	var firstErr error

	computeUnit := func(ui int) error {
		for _, q := range unitElems[ui] {
			i := f.RowInd[q]
			j := int(colOf[q])
			sum := val[q]
			// Intersect row structures of i and j for columns k < j.
			ri, rj := ops.RowCols(i), ops.RowCols(j)
			a, b := 0, 0
			for a < len(ri) && b < len(rj) {
				switch {
				case ri[a] < rj[b]:
					a++
				case ri[a] > rj[b]:
					b++
				default:
					k := int(ri[a])
					prod := val[posOf(i, k)] * val[posOf(j, k)]
					if ldl {
						prod *= val[f.ColPtr[k]] // D[k]
					}
					sum -= prod
					a++
					b++
				}
			}
			if i == j {
				if ldl {
					if sum == 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
						return fmt.Errorf("exec: unusable pivot %g at column %d (want finite nonzero)", sum, j)
					}
					val[q] = sum
				} else {
					if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
						return fmt.Errorf("exec: unusable pivot %g at column %d (want finite positive)", sum, j)
					}
					val[q] = math.Sqrt(sum)
				}
			} else {
				val[q] = sum / val[f.ColPtr[j]]
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	for p := 0; p < s.P; p++ {
		wg.Add(1)
		//repro:allow nondeterminism -- one worker per processor over the pred-synchronized unit graph; factors are pinned bitwise against numeric.Factorize by TestParallelFactorizeMatchesSequential and TestParallelFactorizeDeterminism under -race
		go func(units []int) {
			defer wg.Done()
			for _, ui := range units {
				mu.Lock()
				for !allDone(done, execPreds[ui]) && firstErr == nil {
					cond.Wait()
				}
				if firstErr != nil {
					mu.Unlock()
					return
				}
				mu.Unlock()
				err := computeUnit(ui)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				done[ui] = true
				cond.Broadcast()
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(perProc[p])
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return &NumericFactor{F: f, Val: val}, nil
}

func allDone(done []bool, preds []int32) bool {
	for _, p := range preds {
		if !done[p] {
			return false
		}
	}
	return true
}

// NumericFactor is the numeric output of the parallel execution; Val
// aligns with the row indices of the symbolic structure F.
type NumericFactor struct {
	F   *symbolic.Factor
	Val []float64
}
