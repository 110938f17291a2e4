package exec_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/numeric"
	"repro/internal/order"
	"repro/internal/part2d"
	"repro/internal/sparse"
	"repro/internal/strategy"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

// events is a probe that keeps every event.
type events []exec.TaskEvent

func (e *events) OnTask(ev exec.TaskEvent) { *e = append(*e, ev) }

// checkColumnGraph holds a column graph, whose task j waits on its
// elimination-tree children, to the same graph with the full rows of the
// factor as predecessors (exec.FullRows, read off the columns): the same
// reachability, the same Simulate result and the same probe events, Cause
// included, static and dynamic, with and without a comm model, the same
// critical path; and, compiled on p workers, a program that Compile
// reads as a column graph on the tree (exec.IsTree) and whose successors
// are exactly the transpose of what each of its tasks waits on
// (exec.ColumnWaitsRef, split halves included), as many as Run counts
// down. It returns the two graphs' edge counts and the program's split
// columns.
func checkColumnGraph(f *symbolic.Factor, p int, tasks []exec.Task, comm *traffic.TaskComm) (edges, fullEdges, splits int, err error) {
	full := slices.Clone(tasks)
	for j, row := range exec.FullRows(f) {
		full[j].Preds = row
		edges, fullEdges = edges+len(tasks[j].Preds), fullEdges+len(row)
	}
	got, want := closure(tasks), closure(full)
	for t := range got {
		if !slices.Equal(got[t], want[t]) {
			return 0, 0, 0, fmt.Errorf("task %d: the tree reaches it from other tasks than the full rows do", t)
		}
	}
	for _, o := range []exec.SimOptions{{}, {Dynamic: true},
		{Comm: exec.CommModel{Alpha: 2, Beta: 10}, Vol: comm.Vol, Msgs: comm.Msgs},
		{Dynamic: true, Comm: exec.CommModel{Alpha: 2, Beta: 10}, Vol: comm.Vol, Msgs: comm.Msgs}} {
		var ge, we events
		o.Probe = &ge
		g := exec.Simulate(tasks, p, o)
		o.Probe = &we
		if w := exec.Simulate(full, p, o); g != w {
			return 0, 0, 0, fmt.Errorf("dynamic %t, comm %+v: Simulate %+v, the full rows %+v", o.Dynamic, o.Comm, g, w)
		}
		if len(ge) != len(we) {
			return 0, 0, 0, fmt.Errorf("dynamic %t, comm %+v: %d events, the full rows %d", o.Dynamic, o.Comm, len(ge), len(we))
		}
		for i := range we {
			if ge[i] != we[i] {
				return 0, 0, 0, fmt.Errorf("dynamic %t, comm %+v: event %d %+v, the full rows %+v", o.Dynamic, o.Comm, i, ge[i], we[i])
			}
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
	if !exec.IsTree(pg) {
		return 0, 0, 0, fmt.Errorf("not compiled as a column graph on the elimination tree")
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
// under -race), a column graph that waits on the elimination tree orders
// the columns as the full rows do (checkColumnGraph).
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
					t.Logf("LAP30: %d edges waiting on the tree, %d on full rows", e, fe)
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
// columns 255 and 510, and its elimination tree is one chain. Under wrap
// at P = 2 and 3 column j waits on its one child, j − 1, whatever the
// runs; the graph orders as the full rows, Run follows the waits of both
// halves of every split column, and the factor is the serial one bit for
// bit.
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
		for j, task := range tasks {
			if want := []int32{int32(j - 1)}; j > 0 && !slices.Equal(task.Preds, want) || j == 0 && len(task.Preds) != 0 {
				t.Fatalf("P=%d: column %d waits on %v, want its child %d", p, j, task.Preds, j-1)
			}
		}
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

// TestColumnGraphDecrements pins the counters Run decrements per
// factorization of wrap at P = 2 on MMD-ordered Grid9(120,120), the
// benchmark's refactor plan: Σ indegree is the 14 399 tree edges, one
// more per split column (its two halves wait on its children and on its
// first half), plus the children of each split column's last source that
// its first half waits on. The first halves' waits are pinned on their
// own.
func TestColumnGraphDecrements(t *testing.T) {
	m := gen.Grid9(120, 120)
	pm, err := m.Permute(order.MMD(m))
	if err != nil {
		t.Fatal(err)
	}
	sys := strategy.NewSys(symbolic.Analyze(pm), nil, nil)
	sc, err := strategy.Map("wrap", sys, 2, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tasks := strategy.Tasks(sys, strategy.Options{}, sc)
	pg, err := exec.Compile(sys.F, 2, tasks, sys.F.ColIndex())
	if err != nil {
		t.Fatal(err)
	}
	total, firstHalves := 0, 0
	for t, d := range exec.Indegrees(pg) {
		total += int(d)
		if t >= len(tasks) {
			firstHalves += int(d)
		}
	}
	if pg.Tasks() != 18370 || total != 22567 || firstHalves != 4295 {
		t.Fatalf("%d tasks, %d decrements, %d of them first-half waits; want 18 370, 22 567 and 4 295", pg.Tasks(), total, firstHalves)
	}
}
