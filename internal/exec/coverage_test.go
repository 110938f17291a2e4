package exec_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/part2d"
	"repro/internal/strategy"
	"repro/internal/symbolic"
)

// uncovered returns the first read of a compiled program that neither
// the reading task nor one of its direct predecessors wrote, "" when
// every read is covered. In a column graph (column set: task j is column
// j, whole) task j waits on its elimination-tree children only, and the
// other columns of row j precede it through them: there a read may also be
// covered by any ancestor, a task Run finishes before the reader starts.
// A step over positions [lo, hi) of column j with sources [from, to)
// reads, for every source c in that range with a row among the step's
// rows, those rows of c and L[j,c] (numeric.Kernel.Step
// reads nothing of a source with none); when it scales (to == j) below the
// diagonal it reads the diagonal; when it resumes (from > 0) it reads the
// partial sums of the step that applied the sources before from. A
// position's writer is the task whose step finishes it (to == j), or for
// partial sums the task whose step stops at from. O(steps × sources).
func uncovered(f *symbolic.Factor, pg *exec.Program, column bool) string {
	steps, preds, graph := exec.ProgramGraph(pg)
	fin, end := make([]int32, f.NNZ()), make([]int32, f.NNZ())
	part := make(map[[2]int32]int32) // {lo, to} -> task of a step that stops short of its column
	for q := range fin {
		fin[q] = -1
	}
	for t, ss := range steps {
		for _, s := range ss {
			if s[4] != s[0] {
				part[[2]int32{s[1], s[4]}] = int32(t)
				continue
			}
			for q := s[1]; q < s[2]; q++ {
				fin[q], end[q] = int32(t), s[2]
			}
		}
	}
	for q, t := range fin {
		if t < 0 {
			return fmt.Sprintf("position %d is never finished", q)
		}
	}
	var reach [][]uint64
	if column {
		reach = ancestors(preds, graph)
	}
	near := make([]int32, len(steps)) // near[v] == t+1: v is t or a direct predecessor of t
	for t, ss := range steps {
		mark := int32(t + 1)
		near[t] = mark
		for _, pr := range preds[t] {
			near[pr] = mark
		}
		covered := func(w int32) bool { return near[w] == mark || column && reach[t][w>>6]&(1<<(w&63)) != 0 }
		for _, s := range ss {
			j, lo, hi, from, to := int(s[0]), int(s[1]), int(s[2]), s[3], s[4]
			at := func(what string, q int) string {
				return fmt.Sprintf("task %d, step (%d, %d, %d, %d, %d): %s at position %d, written by task %d", t, j, lo, hi, from, to, what, q, fin[q])
			}
			rlo, rhi := f.RowInd[lo], f.RowInd[hi-1]
			cols, pos := f.AppendRow(nil, j, false), f.AppendRow(nil, j, true)
			for x, c := range cols {
				if c < from || c >= to {
					continue
				}
				p := int(pos[x])
				rs := f.RowInd[p:f.ColPtr[c+1]]
				a, _ := slices.BinarySearch(rs, rlo)
				b, _ := slices.BinarySearch(rs, rhi+1)
				a, b = p+a, p+b
				if a < b && !covered(fin[p]) {
					return at(fmt.Sprintf("L[%d,%d]", j, c), p)
				}
				for q := a; q < b; q = int(end[q]) {
					if !covered(fin[q]) {
						return at(fmt.Sprintf("source %d's rows", c), q)
					}
				}
			}
			if d := f.ColPtr[j]; int(to) == j && lo > d && !covered(fin[d]) {
				return at("the diagonal", d)
			}
			if from > 0 {
				if w, ok := part[[2]int32{s[1], from}]; !ok || !covered(w) {
					return fmt.Sprintf("task %d resumes column %d at source %d without the partial sums before it", t, j, from)
				}
			}
		}
	}
	return ""
}

// ancestors returns, as one bit set per program task, the tasks that
// reach it through preds: its ancestors. A split column's first half (a
// program task whose graph task is another) precedes its graph task,
// which every other task follows in index order.
func ancestors(preds [][]int32, graph []int32) [][]uint64 {
	n := len(preds)
	words := (n + 63) / 64
	reach, order := make([][]uint64, n), make([]int, 0, n)
	half := make(map[int32]int)
	for t, g := range graph {
		if g != int32(t) {
			half[g] = t
		}
	}
	for t, g := range graph {
		if g == int32(t) {
			if h, ok := half[g]; ok {
				order = append(order, h)
			}
			order = append(order, t)
		}
	}
	for _, t := range order {
		reach[t] = make([]uint64, words)
		for _, pr := range preds[t] {
			if reach[pr] == nil {
				panic(fmt.Sprintf("task %d waits on task %d, not yet ordered", t, pr))
			}
			for w, b := range reach[pr] {
				reach[t][w] |= b
			}
			reach[t][pr>>6] |= 1 << (pr & 63)
		}
	}
	return reach
}

// closure is ancestors of a graph, whose predecessors come earlier in the
// slice.
func closure(tasks []exec.Task) [][]uint64 {
	preds, graph := make([][]int32, len(tasks)), make([]int32, len(tasks))
	for t := range tasks {
		preds[t], graph[t] = tasks[t].Preds, int32(t)
	}
	return ancestors(preds, graph)
}

// Every compiled program reads only what its own task or a direct
// predecessor wrote, a column graph what its own task or an ancestor
// wrote (uncovered): the suite under every 1D strategy (block-granular
// ones at grain 4 and 25, and at grain 4 with relaxation 0.3) and every 2D
// mapper, at five processor counts (P = 2 and 3 under -race), split
// columns included.
func TestCompiledReadsCoveredByPredecessors(t *testing.T) {
	parts := []core.Options{{Grain: 4, MinClusterWidth: 4}, {Grain: 25, MinClusterWidth: 4}, {Grain: 4, MinClusterWidth: 4, RelaxZeros: 0.3}}
	programs, columns := 0, 0
	for _, tm := range gen.Suite() {
		sys := refSys(t, tm)
		n := sys.F.N
		procs := []int{1, 2, 3, 64, n + 1}
		if raceBuild {
			procs = procs[1:3]
		}
		for _, p := range procs {
			check := func(what string, f *symbolic.Factor, tasks []exec.Task, elemTask []int32) {
				t.Helper()
				pg, err := exec.Compile(f, p, tasks, elemTask)
				if err != nil {
					t.Fatalf("%s %s P=%d: %v", tm.Name, what, p, err)
				}
				column := elemTask == nil
				if msg := uncovered(f, pg, column); msg != "" {
					t.Fatalf("%s %s P=%d: %s", tm.Name, what, p, msg)
				}
				if programs++; column {
					columns++
				}
			}
			for _, name := range strategy.Names() {
				for k, po := range parts {
					opts := strategy.Options{Part: po}
					sc, err := strategy.Map(name, sys, p, opts)
					if err != nil {
						t.Fatal(err)
					}
					if sc.UnitProc == nil {
						if k == 0 {
							check(name, sys.F, strategy.Tasks(sys, opts, sc), nil)
						}
						continue
					}
					part := sys.Partition(po)
					check(fmt.Sprintf("%s %+v", name, po), part.F, strategy.Tasks(sys, opts, sc), part.ElemUnit)
				}
			}
			for _, name := range part2d.Names2D() {
				s2, err := part2d.Map2D(name, sys, p, strategy.Options{})
				if err != nil {
					t.Fatal(err)
				}
				tasks, elemTask := part2d.Tasks(sys.Ops, sys.ElemWork, s2)
				check(name, sys.F, tasks, elemTask)
			}
		}
	}
	t.Logf("%d programs, %d of them column graphs, every read covered", programs, columns)
}

// The walk sees a missing dependency on LAP30: the chain t-1 -> t whose
// task t holds column n-1-t (a graph Compile accepts, whose factor is
// wrong) reads a source no predecessor wrote; so does the block graph at
// grain 4 with one task's first predecessor dropped, and the column graph
// under wrap with the edge from one column's elimination-tree child
// dropped (the one edge no other path implies), which Compile rejects as a
// column graph and lays out under the column index, reads a source no
// ancestor wrote.
func TestCompiledReadsCoverageCatchesDroppedPredecessor(t *testing.T) {
	sys := refSys(t, gen.Suite()[3])
	n := sys.F.N
	chain, reversed := make([]exec.Task, n), make([]int32, sys.F.NNZ())
	for j := 0; j < n; j++ {
		chain[j] = exec.Task{}
		if j > 0 {
			chain[j].Preds = []int32{int32(j - 1)}
		}
		for q := sys.F.ColPtr[j]; q < sys.F.ColPtr[j+1]; q++ {
			reversed[q] = int32(n - 1 - j)
		}
	}
	pg, err := exec.Compile(sys.F, 1, chain, reversed)
	if err != nil {
		t.Fatal(err)
	}
	if msg := uncovered(sys.F, pg, false); msg == "" {
		t.Fatal("the reversed chain passes")
	}
	for _, p := range []int{1, 3} {
		for _, c := range []struct {
			name string
			opts strategy.Options
		}{{"block", strategy.Options{Part: core.Options{Grain: 4, MinClusterWidth: 4}}}, {"wrap", strategy.Options{}}} {
			sc, err := strategy.Map(c.name, sys, p, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			f, elemTask := sys.F, []int32(nil)
			if sc.UnitProc != nil {
				part := sys.Partition(c.opts.Part)
				f, elemTask = part.F, part.ElemUnit
			}
			tasks := strategy.Tasks(sys, c.opts, sc)
			column := elemTask == nil
			if pg, err = exec.Compile(f, p, tasks, elemTask); err != nil {
				t.Fatal(err)
			}
			if msg := uncovered(f, pg, column); msg != "" {
				t.Fatalf("%s P=%d: intact graph: %s", c.name, p, msg)
			}
			j := len(tasks) - 1
			for len(tasks[j].Preds) < 2 {
				j--
			}
			drop := 0
			if column { // the child's subtree reaches j only through that edge
				drop = slices.IndexFunc(tasks[j].Preds, func(c int32) bool { return f.Parent[c] == j })
			}
			planted := append([]exec.Task(nil), tasks...)
			planted[j].Preds = slices.Delete(slices.Clone(tasks[j].Preds), drop, drop+1)
			if column {
				// No longer the tree: not a column graph, but the column
				// index lays it out as any graph.
				if _, err := exec.Compile(f, p, planted, nil); err == nil {
					t.Fatalf("%s P=%d: task %d without child %d compiles as a column graph", c.name, p, j, tasks[j].Preds[drop])
				}
				elemTask = f.ColIndex()
			}
			if pg, err = exec.Compile(f, p, planted, elemTask); err != nil {
				t.Fatal(err)
			}
			if msg := uncovered(f, pg, column); msg == "" {
				t.Fatalf("%s P=%d: task %d without predecessor %d passes", c.name, p, j, tasks[j].Preds[drop])
			} else {
				t.Logf("%s P=%d: %s", c.name, p, msg)
			}
		}
	}
}
