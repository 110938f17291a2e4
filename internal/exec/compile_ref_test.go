package exec_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/part2d"
	"repro/internal/strategy"
	"repro/internal/symbolic"
)

// blockPredsRef is the edge loop of the block-schedule constructor that
// Compile's scale rule replaced, kept as its oracle: every unit waits for
// its own predecessors and for the unit holding the diagonal of every
// column in its range.
func blockPredsRef(part *core.Partition) [][]int32 {
	f := part.F
	out := make([][]int32, len(part.Units))
	seen := make([]int32, len(part.Units)) // seen[v] == u+1: v already precedes u
	for ui := range part.Units {
		u := &part.Units[ui]
		preds := u.Preds[:len(u.Preds):len(u.Preds)]
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
		out[ui] = preds
	}
	return out
}

// graphPreds returns the predecessor set of every task of the graph pg
// was compiled from, ascending: a split column's two tasks fold into its
// one.
func graphPreds(pg *exec.Program, nt int) [][]int32 {
	_, preds, _ := exec.ProgramGraph(pg)
	return foldPreds(pg, preds, nt)
}

// foldPreds folds preds, every program task's predecessors, into the
// sets of the nt graph tasks pg was compiled from, ascending.
func foldPreds(pg *exec.Program, preds [][]int32, nt int) [][]int32 {
	_, _, graph := exec.ProgramGraph(pg)
	out := make([][]int32, nt)
	for t, ps := range preds {
		g := graph[t]
		for _, pr := range ps {
			if graph[pr] != g {
				out[g] = append(out[g], graph[pr])
			}
		}
	}
	for g := range out {
		slices.Sort(out[g])
		out[g] = slices.Compact(out[g])
	}
	return out
}

// sameSets reports the first task whose predecessor set differs between
// got (ascending, no repeats) and want (any order), -1 when none does.
func sameSets(got, want [][]int32) int {
	if len(got) != len(want) {
		return 0
	}
	for t := range want {
		w := slices.Clone(want[t])
		slices.Sort(w)
		if !slices.Equal(got[t], slices.Compact(w)) {
			return t
		}
	}
	return -1
}

// refSys is the analysis of one suite matrix under minimum degree.
func refSys(tb testing.TB, tm gen.TestMatrix) *strategy.Sys {
	m := tm.Build()
	pm, err := m.Permute(order.MMD(m))
	if err != nil {
		tb.Fatal(err)
	}
	return strategy.NewSys(symbolic.Analyze(pm), nil, nil)
}

// The scale rule reproduces the deleted block constructor's graph: over
// the suite, four grains, two relaxations, the three block-granular
// strategies and five processor counts, every compiled unit's predecessor
// set is the oracle's. It adds no edge to a column plan or a 2D plan,
// whose constructors list the diagonal's task already. Under -race, which
// has nothing to find in this single-threaded sweep, only grain 4, block
// and blockgreedy, and P = 2 run.
func TestCompileScaleEdgesMatchBlockOracle(t *testing.T) {
	units, cols, tiles := 0, 0, 0
	grains, blocks := []int{1, 4, 25, 100}, []string{"block", "blockgreedy", "refine"}
	if raceBuild {
		grains, blocks = grains[1:2], blocks[:2]
	}
	for _, tm := range gen.Suite() {
		sys := refSys(t, tm)
		n := sys.F.N
		procs, procs2D := []int{1, 2, 16, 64, n + 1}, []int{1, 2, 4, 16, 64}
		if raceBuild {
			procs, procs2D = procs[1:2], procs2D[1:2]
		}
		for _, g := range grains {
			for _, relax := range []float64{0, 0.3} {
				opts := strategy.Options{Part: core.Options{Grain: g, MinClusterWidth: 4, RelaxZeros: relax}}
				part := sys.Partition(opts.Part)
				want := blockPredsRef(part)
				for _, name := range blocks {
					for _, p := range procs {
						sc, err := strategy.Map(name, sys, p, opts)
						if err != nil {
							t.Fatal(err)
						}
						pg, err := exec.Compile(part.F, p, strategy.Tasks(sys, opts, sc), part.ElemUnit)
						if err != nil {
							t.Fatal(err)
						}
						if u := sameSets(graphPreds(pg, len(want)), want); u >= 0 {
							t.Fatalf("%s g=%d relax=%g %s P=%d: unit %d's predecessors differ from the oracle's", tm.Name, g, relax, name, p, u)
						}
						units += len(want)
					}
				}
			}
		}
		noEdges := func(what string, pg *exec.Program, tasks []exec.Task) {
			t.Helper()
			want := make([][]int32, len(tasks))
			for i := range tasks {
				want[i] = tasks[i].Preds
			}
			if pg.Tasks() > len(tasks) {
				// A split column's first half also waits on the children
				// of its last source that are sources of the column.
				want = foldPreds(pg, exec.ColumnWaitsRef(pg), len(tasks))
			}
			if u := sameSets(graphPreds(pg, len(tasks)), want); u >= 0 {
				t.Fatalf("%s %s: the scale rule changed task %d's predecessors", tm.Name, what, u)
			}
		}
		for _, name := range strategy.Names() {
			for _, p := range procs {
				sc, err := strategy.Map(name, sys, p, strategy.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if sc.UnitProc != nil {
					continue
				}
				tasks := strategy.Tasks(sys, strategy.Options{}, sc)
				pg, err := exec.Compile(sys.F, p, tasks, sys.F.ColIndex())
				if err != nil {
					t.Fatal(err)
				}
				noEdges(fmt.Sprintf("%s P=%d", name, p), pg, tasks)
				cols += len(tasks)
			}
		}
		for _, name := range part2d.Names2D() {
			for _, p := range procs2D {
				s2, err := part2d.Map2D(name, sys, p, strategy.Options{})
				if err != nil {
					t.Fatal(err)
				}
				tasks, elemTask := part2d.Tasks(sys.Ops, sys.ElemWork, s2)
				pg, err := exec.Compile(sys.F, p, tasks, elemTask)
				if err != nil {
					t.Fatal(err)
				}
				noEdges(fmt.Sprintf("%s P=%d", name, p), pg, tasks)
				tiles += len(tasks)
			}
		}
	}
	t.Logf("%d block units, %d column tasks, %d 2D tasks: every predecessor set as expected", units, cols, tiles)
}
