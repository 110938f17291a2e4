package exec

// ProgramGraph lays a compiled program out for the tests of package
// exec_test: every program task's steps as {j, lo, hi, from, to}, its
// direct predecessors in ascending order, and the graph task it runs all
// or half of.
func ProgramGraph(pg *Program) (steps [][][5]int32, preds [][]int32, graph []int32) {
	n := len(pg.proc)
	steps, preds, graph = make([][][5]int32, n), make([][]int32, n), make([]int32, n)
	for t := 0; t < n; t++ {
		for _, s := range pg.steps[pg.stepPtr[t]:pg.stepPtr[t+1]] {
			steps[t] = append(steps[t], [5]int32{s.j, s.lo, s.hi, s.from, s.to})
		}
		graph[t] = pg.graphTask(int32(t))
		for _, s := range pg.succ[pg.succPtr[t]:pg.succPtr[t+1]] {
			preds[s] = append(preds[s], int32(t))
		}
	}
	return steps, preds, graph
}
