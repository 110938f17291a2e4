package exec_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/numeric"
	"repro/internal/part2d"
	"repro/internal/sparse"
	"repro/internal/strategy"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

// checkColumnGraph holds a column graph, whose task j waits on the last
// column of each run of row j, to the same graph with the full rows of
// the factor as predecessors (exec.FullRows, read off the columns): the
// same reachability, the same Simulate result static and dynamic, with
// and without a comm model, the same critical path; and, compiled on p
// workers, a program whose successors are exactly the transpose of what
// each of its tasks waits on (exec.ColumnWaitsRef, split halves
// included), as many as Run counts down. It returns the two graphs' edge
// counts and the program's split columns.
func checkColumnGraph(f *symbolic.Factor, p int, tasks []exec.Task, comm *traffic.TaskComm) (edges, fullEdges, splits int, err error) {
	full := slices.Clone(tasks)
	for j, row := range exec.FullRows(f) {
		full[j].Preds = row
		edges, fullEdges = edges+len(tasks[j].Preds), fullEdges+len(row)
	}
	got, want := closure(tasks), closure(full)
	for t := range got {
		if !slices.Equal(got[t], want[t]) {
			return 0, 0, 0, fmt.Errorf("task %d: the run ends reach it from other tasks than the full rows do", t)
		}
	}
	for _, o := range []exec.SimOptions{{}, {Dynamic: true},
		{Comm: exec.CommModel{Alpha: 2, Beta: 10}, Vol: comm.Vol, Msgs: comm.Msgs},
		{Dynamic: true, Comm: exec.CommModel{Alpha: 2, Beta: 10}, Vol: comm.Vol, Msgs: comm.Msgs}} {
		if g, w := exec.Simulate(tasks, p, o), exec.Simulate(full, p, o); g != w {
			return 0, 0, 0, fmt.Errorf("dynamic %t, comm %+v: Simulate %+v, the full rows %+v", o.Dynamic, o.Comm, g, w)
		}
	}
	if g, w := exec.CriticalPath(tasks), exec.CriticalPath(full); g != w {
		return 0, 0, 0, fmt.Errorf("critical path %d, the full rows %d", g, w)
	}
	pg, err := exec.Compile(f, p, tasks, f.ColIndex())
	if err != nil {
		return 0, 0, 0, err
	}
	if p == 1 {
		return edges, fullEdges, 0, nil
	}
	if !exec.IsColumnGraph(pg) {
		return 0, 0, 0, fmt.Errorf("not compiled as a column graph")
	}
	_, preds, _ := exec.ProgramGraph(pg)
	waits, indeg := exec.ColumnWaitsRef(pg), exec.Indegrees(pg)
	for t := range waits {
		ps, ws := slices.Clone(preds[t]), slices.Clone(waits[t])
		slices.Sort(ps)
		slices.Sort(ws)
		if !slices.Equal(ps, ws) || int(indeg[t]) != len(ws) {
			return 0, 0, 0, fmt.Errorf("program task %d: successors lead from %v (Run counts %d), it waits on %v", t, ps, indeg[t], ws)
		}
	}
	return edges, fullEdges, pg.Tasks() - len(tasks), nil
}

// TestColumnGraphMatchesFullRows: over the suite, every column-granular
// 1D strategy and its col2d lift at P = 1, 2, 4, 16, 64 and n + 1 (P = 2
// under -race), a column graph that waits on run ends orders the columns
// as the full rows do (checkColumnGraph).
func TestColumnGraphMatchesFullRows(t *testing.T) {
	graphs, splits := 0, 0
	for _, tm := range gen.Suite() {
		sys := refSys(t, tm)
		f := sys.F
		procs := []int{1, 2, 4, 16, 64, f.N + 1}
		if raceBuild {
			procs = procs[1:2]
		}
		for _, p := range procs {
			for _, name := range strategy.Names() {
				sc, err := strategy.Map(name, sys, p, strategy.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if sc.ColProc == nil || sc.F != f {
					continue
				}
				tasks := strategy.Tasks(sys, strategy.Options{}, sc)
				e, fe, s, err := checkColumnGraph(f, p, tasks, traffic.FetchStats(sc))
				if err != nil {
					t.Fatalf("%s %s P=%d: %v", tm.Name, name, p, err)
				}
				s2, err := part2d.Lift(sys, sc, name)
				if err != nil {
					t.Fatal(err)
				}
				lifted, elemTask := part2d.Tasks(sys.Ops, sys.ElemWork, s2)
				_, _, ls, err := checkColumnGraph(f, p, lifted, part2d.FetchStats(sys.Ops, s2, len(lifted), elemTask))
				if err != nil {
					t.Fatalf("%s col2d(%s) P=%d: %v", tm.Name, name, p, err)
				}
				graphs, splits = graphs+2, splits+s+ls
				if tm.Name == "LAP30" && name == "wrap" && p == procs[0] {
					t.Logf("LAP30: %d edges waiting on run ends, %d on full rows", e, fe)
				}
			}
		}
	}
	if splits == 0 {
		t.Fatal("no column split: the sweep misses the first halves")
	}
	t.Logf("%d column graphs, %d split columns: every one orders as the full rows", graphs, splits)
}

// TestColumnGraphLongRuns: the dense factor of an arrow matrix, n = 600,
// holds its last rows as three runs, cut where they would step onto
// columns 255 and 510; under wrap at P = 2 and 3 its column graph orders
// as the full rows, Run waits on each run's end, and the factor is the
// serial one bit for bit.
func TestColumnGraphLongRuns(t *testing.T) {
	const n = 600
	var is, js []int
	var vs []float64
	for i := 0; i < n; i++ {
		is, js, vs = append(is, i), append(js, i), append(vs, float64(4*n+i%7))
		if i > 0 {
			is, js, vs = append(is, i), append(js, 0), append(vs, -1-float64(i%5)/7)
		}
	}
	m, err := sparse.FromTriplets(n, is, js, vs)
	if err != nil {
		t.Fatal(err)
	}
	sys := strategy.NewSys(symbolic.Analyze(m), nil, nil)
	f, ri := sys.F, sys.F.Rows()
	if ri.RunPtr[n]-ri.RunPtr[n-1] != 3 {
		t.Fatalf("last row in %d runs, want 3", ri.RunPtr[n]-ri.RunPtr[n-1])
	}
	want, err := numeric.Factorize(m, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3} {
		sc, err := strategy.Map("wrap", sys, p, strategy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tasks := strategy.Tasks(sys, strategy.Options{}, sc)
		if _, _, splits, err := checkColumnGraph(f, p, tasks, traffic.FetchStats(sc)); err != nil || splits == 0 {
			t.Fatalf("P=%d: %d split columns: %v", p, splits, err)
		}
		pg, err := exec.Compile(f, p, tasks, f.ColIndex())
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := pg.Run(m, numeric.KernelCholesky, false)
		if err != nil {
			t.Fatal(err)
		}
		for q := range want.Val {
			if math.Float64bits(got.Val[q]) != math.Float64bits(want.Val[q]) {
				t.Fatalf("P=%d: position %d: %g, serial %g", p, q, got.Val[q], want.Val[q])
			}
		}
	}
}
