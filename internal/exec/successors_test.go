package exec_test

import (
	"fmt"
	"runtime"
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

// Every program follows, as sets, the successors of the transposition of
// its predecessors (successors_ref_test.go): over the suite, every 1D
// strategy at five processor counts, block at grain 25 with relaxation
// 0.3, and every 2D mapper, split columns included. A one-worker program
// keeps no edge at all; any other exactly one indegree per task and one
// successor list, its pointers plus one entry per edge, and a
// column-granular 1D program is read as a column graph on the
// elimination tree (exec.IsTree), the graph whose columns split. Under
// -race, which has nothing to find in this single-threaded sweep, only
// P = 2 runs.
func TestSuccessorsMatchTransposition(t *testing.T) {
	programs, splitPrograms, splits := 0, 0, 0
	check := func(what string, f *symbolic.Factor, p int, tasks []exec.Task, elemTask []int32, tree bool) {
		t.Helper()
		pg, err := exec.Compile(f, p, tasks, elemTask)
		if err != nil {
			t.Fatal(err)
		}
		programs++
		indeg, half, succ := exec.HeldEdges(pg)
		if p == 1 {
			if indeg+half+succ != 0 {
				t.Fatalf("%s: a one-worker program holds %d indegrees, %d half markers, %d successor entries", what, indeg, half, succ)
			}
			return
		}
		edges := 0
		for _, d := range exec.Indegrees(pg) {
			edges += int(d)
		}
		if n := pg.Tasks(); indeg != n || succ != n+1+edges {
			t.Fatalf("%s: %d tasks with %d edges hold %d indegrees and %d successor entries, want %d and %d", what, n, edges, indeg, succ, n, n+1+edges)
		}
		if tree && !exec.IsTree(pg) {
			t.Fatalf("%s: not compiled as a column graph on the elimination tree", what)
		}
		if s := pg.Tasks() - len(tasks); s > 0 {
			splitPrograms, splits = splitPrograms+1, splits+s
		}
		got, want := exec.ProgramSuccessors(pg), exec.SuccessorsRef(pg)
		if len(got) != len(want) {
			t.Fatalf("%s: %d tasks, the oracle %d", what, len(got), len(want))
		}
		for s := range want {
			g := slices.Clone(got[s])
			slices.Sort(g)
			if !slices.Equal(g, want[s]) {
				t.Fatalf("%s: task %d's successors %v, the oracle's %v", what, s, g, want[s])
			}
		}
	}
	block := strategy.Options{Part: core.Options{Grain: 25, MinClusterWidth: 4, RelaxZeros: 0.3}}
	for _, tm := range gen.Suite() {
		sys := refSys(t, tm)
		n := sys.F.N
		procs, procs2D := []int{1, 2, 4, 64, n + 1}, []int{1, 2, 4, 16, 64}
		if raceBuild {
			procs, procs2D = procs[1:2], procs2D[1:2]
		}
		for _, p := range procs {
			for _, name := range strategy.Names() {
				sc, err := strategy.Map(name, sys, p, strategy.Options{})
				if err != nil {
					t.Fatal(err)
				}
				f, elemTask := sys.F, sys.F.ColIndex()
				if sc.Part != nil {
					f, elemTask = sc.F, sc.Part.ElemUnit
				}
				check(fmt.Sprintf("%s %s P=%d", tm.Name, name, p), f, p, strategy.Tasks(sys, strategy.Options{}, sc), elemTask, sc.ColProc != nil && sc.F == sys.F)
			}
			sc, err := strategy.Map("block", sys, p, block)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s block g=25 relax=0.3 P=%d", tm.Name, p), sc.F, p, strategy.Tasks(sys, block, sc), sc.Part.ElemUnit, false)
		}
		for _, p := range procs2D {
			for _, name := range part2d.Names2D() {
				s2, err := part2d.Map2D(name, sys, p, strategy.Options{})
				if err != nil {
					t.Fatal(err)
				}
				tasks, elemTask := part2d.Tasks(sys.Ops, sys.ElemWork, s2)
				check(fmt.Sprintf("%s %s P=%d", tm.Name, name, p), sys.F, p, tasks, elemTask, false)
			}
		}
	}
	if splits == 0 {
		t.Fatal("no split column: the sweep misses the first halves")
	}
	t.Logf("%d programs, %d with %d split columns: every successor set the oracle's", programs, splitPrograms, splits)
}

// Compile keeps the column graph's edges small: wrap on Grid9(60,60) at
// P = 1 (no edge at all) and at P = 2 (indegrees, the first-half markers
// and the successor list of the elimination tree and the split halves)
// retains less than 3·nnz(L) bytes. A successor list of the full rows
// would be 4·(nnz(L) − n) bytes by itself. The factor's row index, which
// the task graph already built, is not counted.
func TestCompileRetainsNoEdgeCopy(t *testing.T) {
	m := gen.Grid9(60, 60)
	pm, err := m.Permute(order.MMD(m))
	if err != nil {
		t.Fatal(err)
	}
	sys := strategy.NewSys(symbolic.Analyze(pm), nil, nil)
	f := sys.F
	elemTask := f.ColIndex()
	for _, p := range []int{1, 2} {
		sc, err := strategy.Map("wrap", sys, p, strategy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tasks := strategy.Tasks(sys, strategy.Options{}, sc)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		pg, err := exec.Compile(f, p, tasks, elemTask)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if limit := int64(3 * f.NNZ()); held >= limit {
			t.Errorf("P=%d: Compile retains %d bytes for nnz(L) = %d, want < %d", p, held, f.NNZ(), limit)
		} else {
			t.Logf("P=%d: %d tasks, Compile retains %d bytes, %.2f per nnz(L)", p, pg.Tasks(), held, float64(held)/float64(f.NNZ()))
		}
		runtime.KeepAlive(pg)
		runtime.KeepAlive(tasks)
	}
}
