package part2d

import (
	"sort"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

// Tasks builds the makespan task graph of a 2D schedule and the
// element-to-task map. The granularity is the merged tile segment: for
// every target column, its row-block segments are grouped by owning
// processor and each group is one task (a processor computes all of its
// elements of a target column as one unit, so no dependency separates two
// segments it owns). Dependencies follow the fan-out/fan-in structure of
// the tile updates: the task of target (i, j) depends on the tasks of its
// pair-update sources (i, k) (fan-out along block row block(i)) and
// (j, k) (fan-in along block column block(j)), and every off-diagonal
// group of a column depends on the column's diagonal group (the scale).
//
// On a column-granular tiling — every tile of a block column sharing one
// owner, as produced by the col2d lift — each column collapses to a
// single group whose work is the column work and whose predecessor set is
// exactly the column's row structure, i.e. the graph of
// exec.ColumnTasksMapped. exec.Simulate is therefore bit-identical on a
// lift and on its 1D schedule, which the regression tests pin at
// P in {1, 4, 16}. That case is checked on the element ownership in
// O(nnz(L)), never assumed from the mapper, and answered with
// exec.ColumnTasksMapped's graph and the column index as the element map
// (task j is column j) without walking a single update.
func Tasks(ops *model.Ops, elemWork []int64, s *Schedule2D) ([]exec.Task, []int32) {
	f := ops.F
	if owner, ok := traffic.ColumnOwners(f, s.Schedule()); ok {
		return exec.ColumnTasksMapped(f, ops, elemWork, owner), f.ColIndex()
	}
	elemTask := make([]int32, f.NNZ())
	var tasks []exec.Task
	// Per-column owner -> task lookup; columns touch at most P owners.
	type group struct {
		proc int32
		task int32
	}
	var groups []group
	for j := 0; j < f.N; j++ {
		groups = groups[:0]
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			proc := s.ElemProc[q]
			task := int32(-1)
			for _, g := range groups {
				if g.proc == proc {
					task = g.task
					break
				}
			}
			if task < 0 {
				task = int32(len(tasks))
				tasks = append(tasks, exec.Task{ID: int(task), Proc: proc})
				groups = append(groups, group{proc: proc, task: task})
			}
			elemTask[q] = task
			tasks[task].Work += elemWork[q]
		}
	}
	// Predecessors: one pass over the update runs. stamp[src] is a
	// best-effort duplicate filter (the final sort+dedup makes it exact);
	// it is keyed by the last target a source task was recorded for, which
	// catches the long runs of identical (target task, source task) pairs
	// the column-driven enumeration produces.
	preds := make([][]int32, len(tasks))
	stamp := make([]int32, len(tasks))
	for i := range stamp {
		stamp[i] = -1
	}
	rowInd := f.RowInd
	ops.ForEachRun(func(r model.Run) {
		srcJ := elemTask[r.Lo]
		for q := r.Lo; q < r.Hi; q++ {
			t := elemTask[r.Tgt[rowInd[q]]]
			if src := elemTask[q]; src != t && stamp[src] != t {
				stamp[src] = t
				preds[t] = append(preds[t], src)
			}
			if srcJ != t && stamp[srcJ] != t {
				stamp[srcJ] = t
				preds[t] = append(preds[t], srcJ)
			}
		}
	})
	// The scale: every off-diagonal group of a column reads its diagonal.
	for j := 0; j < f.N; j++ {
		diag := elemTask[f.ColPtr[j]]
		for _, t := range elemTask[f.ColPtr[j]+1 : f.ColPtr[j+1]] {
			if diag != t && stamp[diag] != t {
				stamp[diag] = t
				preds[t] = append(preds[t], diag)
			}
		}
	}
	for i := range preds {
		p := preds[i]
		sort.Slice(p, func(a, b int) bool { return p[a] < p[b] })
		out := p[:0]
		for k, v := range p {
			if k == 0 || v != p[k-1] {
				out = append(out, v)
			}
		}
		tasks[i].Preds = out
	}
	return tasks, elemTask
}

// FetchStats attributes the 2D schedule's non-local fetches to the merged
// tile-segment tasks of Tasks, with consolidated message counts (one
// message per distinct source processor feeding a task). The volumes
// partition Traffic(ops, s).Total exactly — the property that lets
// exec.Simulate under a CommModel charge every fetch exactly once.
//
// When the task map is the column index (what Tasks returns for a
// column-granular schedule — checked in O(nnz(L)), never assumed), the
// attribution is traffic.FetchStatsColumns': its closed form on
// column-uniform owners, task by task the element walk's answer, and the
// walk itself otherwise.
func FetchStats(ops *model.Ops, s *Schedule2D, ntasks int, elemTask []int32) *traffic.TaskComm {
	if ntasks == ops.F.N && isColumnIndex(ops.F, elemTask) {
		return traffic.FetchStatsColumns(ops, s.Schedule())
	}
	return traffic.FetchStatsTasks(ops, s.Schedule(), ntasks, elemTask)
}

// isColumnIndex reports whether elemTask maps every factor nonzero to its
// column.
func isColumnIndex(f *symbolic.Factor, elemTask []int32) bool {
	if len(elemTask) != f.NNZ() {
		return false
	}
	for j := 0; j < f.N; j++ {
		for _, t := range elemTask[f.ColPtr[j]:f.ColPtr[j+1]] {
			if t != int32(j) {
				return false
			}
		}
	}
	return true
}
