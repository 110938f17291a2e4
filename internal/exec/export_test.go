package exec

import (
	"fmt"
	"slices"
)

// ProgramGraph lays a compiled program out for the tests of package
// exec_test: every program task's steps as {j, lo, hi, from, to}, its
// direct predecessors in ascending order, and the graph task it runs all
// or half of. The predecessors are the transpose of the successors Run
// follows; a one-worker program follows none, and its are the scale
// rule's over the graph it holds, read back through its steps.
func ProgramGraph(pg *Program) (steps [][][5]int32, preds [][]int32, graph []int32) {
	n := pg.Tasks()
	steps, preds, graph = make([][][5]int32, n), make([][]int32, n), make([]int32, n)
	for t := 0; t < n; t++ {
		var buf [1]step
		for _, s := range pg.taskSteps(int32(t), &buf) {
			steps[t] = append(steps[t], [5]int32{s.j, s.lo, s.hi, s.from, s.to})
		}
		graph[t] = pg.graphTask(int32(t))
	}
	if pg.p == 1 {
		for t, ps := range scalePreds(pg) {
			preds[t] = slices.Clone(ps)
			slices.Sort(preds[t])
		}
		return steps, preds, graph
	}
	for t := 0; t < n; t++ {
		for _, s := range pg.successors(int32(t)) {
			preds[s] = append(preds[s], int32(t))
		}
	}
	return steps, preds, graph
}

// scalePreds returns the predecessors Compile derived for pg's graph
// under the scale rule, the element-task map rebuilt from the graph
// tasks' steps (a split column's first half is not a graph task).
func scalePreds(pg *Program) [][]int32 {
	elemTask := make([]int32, pg.f.NNZ())
	for t := range pg.tasks {
		var buf [1]step
		for _, s := range pg.taskSteps(int32(t), &buf) {
			for q := s.lo; q < s.hi; q++ {
				elemTask[q] = int32(t)
			}
		}
	}
	preds, err := pg.preds(pg.tasks, elemTask)
	if err != nil {
		panic(fmt.Sprintf("exec: a compiled graph fails its own check: %v", err))
	}
	return preds
}

// ProgramSuccessors returns the successors Run follows from every program
// task, nil for a one-worker program, which follows none.
func ProgramSuccessors(pg *Program) [][]int32 {
	if pg.p == 1 {
		return nil
	}
	out := make([][]int32, pg.Tasks())
	for t := range out {
		out[t] = pg.successors(int32(t))
	}
	return out
}

// HeldEdges reports how many int32 entries of edge storage pg holds:
// indegrees, first-half markers and transposed successor lists.
func HeldEdges(pg *Program) (indeg, half, succ int) {
	return len(pg.indeg), len(pg.half), len(pg.succPtr) + len(pg.succ)
}

// SuccessorsRef exports successorsRef, the oracle of ProgramSuccessors.
var SuccessorsRef = successorsRef

// FullRows and ColumnWaitsRef export the full-row oracle of a column
// graph (successors_ref_test.go).
var (
	FullRows       = fullRows
	ColumnWaitsRef = columnWaitsRef
)

// Indegrees returns how many predecessors Run waits on for every program
// task, nil for a one-worker program.
func Indegrees(pg *Program) []int32 { return pg.indeg }
