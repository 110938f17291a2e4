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
// every read is covered. A step over positions [lo, hi) of column j with
// sources [from, to) reads, for every source c in that range with a row
// among the step's rows, those rows of c and L[j,c] (numeric.Kernel.Step
// reads nothing of a source with none); when it scales (to == j) below the
// diagonal it reads the diagonal; when it resumes (from > 0) it reads the
// partial sums of the step that applied the sources before from. A
// position's writer is the task whose step finishes it (to == j), or for
// partial sums the task whose step stops at from. O(steps × sources).
func uncovered(f *symbolic.Factor, pg *exec.Program) string {
	steps, preds, _ := exec.ProgramGraph(pg)
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
	ri := f.Rows()
	near := make([]int32, len(steps)) // near[v] == t+1: v is t or a direct predecessor of t
	for t, ss := range steps {
		mark := int32(t + 1)
		near[t] = mark
		for _, pr := range preds[t] {
			near[pr] = mark
		}
		for _, s := range ss {
			j, lo, hi, from, to := int(s[0]), int(s[1]), int(s[2]), s[3], s[4]
			at := func(what string, q int) string {
				return fmt.Sprintf("task %d, step (%d, %d, %d, %d, %d): %s at position %d, written by task %d", t, j, lo, hi, from, to, what, q, fin[q])
			}
			rlo, rhi := f.RowInd[lo], f.RowInd[hi-1]
			cols, pos := ri.Cols[ri.Ptr[j]:ri.Ptr[j+1]], ri.Pos[ri.Ptr[j]:ri.Ptr[j+1]]
			for x, c := range cols {
				if c < from || c >= to {
					continue
				}
				p := int(pos[x])
				rs := f.RowInd[p:f.ColPtr[c+1]]
				a, _ := slices.BinarySearch(rs, rlo)
				b, _ := slices.BinarySearch(rs, rhi+1)
				a, b = p+a, p+b
				if a < b && near[fin[p]] != mark {
					return at(fmt.Sprintf("L[%d,%d]", j, c), p)
				}
				for q := a; q < b; q = int(end[q]) {
					if near[fin[q]] != mark {
						return at(fmt.Sprintf("source %d's rows", c), q)
					}
				}
			}
			if d := f.ColPtr[j]; int(to) == j && lo > d && near[fin[d]] != mark {
				return at("the diagonal", d)
			}
			if from > 0 {
				if w, ok := part[[2]int32{s[1], from}]; !ok || near[w] != mark {
					return fmt.Sprintf("task %d resumes column %d at source %d without the partial sums before it", t, j, from)
				}
			}
		}
	}
	return ""
}

// Every compiled program reads only what its own task or a direct
// predecessor wrote: the suite under every 1D strategy (block-granular
// ones at grain 4 and 25, and at grain 4 with relaxation 0.3) and every 2D
// mapper, at five processor counts (P = 2 and 3 under -race), split
// columns included.
func TestCompiledReadsCoveredByPredecessors(t *testing.T) {
	parts := []core.Options{{Grain: 4, MinClusterWidth: 4}, {Grain: 25, MinClusterWidth: 4}, {Grain: 4, MinClusterWidth: 4, RelaxZeros: 0.3}}
	programs := 0
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
				if msg := uncovered(f, pg); msg != "" {
					t.Fatalf("%s %s P=%d: %s", tm.Name, what, p, msg)
				}
				programs++
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
							check(name, sys.F, strategy.Tasks(sys, opts, sc), sys.F.ColIndex())
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
	t.Logf("%d programs, every read covered", programs)
}

// The walk sees a missing dependency: the column graph of LAP30 under
// wrap with one predecessor of one column dropped reads a source no
// predecessor wrote, and so does the chain t-1 -> t whose task t holds
// column n-1-t (a graph Compile accepts, whose factor is wrong).
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
	if msg := uncovered(sys.F, pg); msg == "" {
		t.Fatal("the reversed chain passes")
	}
	for _, p := range []int{1, 3} {
		sc, err := strategy.Map("wrap", sys, p, strategy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tasks := strategy.Tasks(sys, strategy.Options{}, sc)
		if pg, err = exec.Compile(sys.F, p, tasks, sys.F.ColIndex()); err != nil {
			t.Fatal(err)
		}
		if msg := uncovered(sys.F, pg); msg != "" {
			t.Fatalf("P=%d: intact graph: %s", p, msg)
		}
		j := len(tasks) - 1
		for len(tasks[j].Preds) < 2 {
			j--
		}
		planted := append([]exec.Task(nil), tasks...)
		planted[j].Preds = tasks[j].Preds[1:]
		if pg, err = exec.Compile(sys.F, p, planted, sys.F.ColIndex()); err != nil {
			t.Fatal(err)
		}
		if msg := uncovered(sys.F, pg); msg == "" {
			t.Fatalf("P=%d: column %d without predecessor %d passes", p, j, tasks[j].Preds[0])
		} else {
			t.Logf("P=%d: %s", p, msg)
		}
	}
}
