package part2d

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/hbio"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/strategy"
	"repro/internal/symbolic"
)

// numSys is the full numeric pipeline of one test matrix: the permuted
// matrix with values, its analysis and the strategy-registry wrapper.
type numSys struct {
	name string
	m    *sparse.Matrix
	f    *symbolic.Factor
	ops  *model.Ops
	ew   []int64
	sys  *strategy.Sys
	chol *numeric.Cholesky
	ldl  *numeric.LDL
}

func buildNumSys(t testing.TB, name string, m *sparse.Matrix) *numSys {
	t.Helper()
	pm, err := m.Permute(order.MMD(m))
	if err != nil {
		t.Fatal(err)
	}
	f := symbolic.Analyze(pm)
	ops := model.NewOps(f)
	ew := model.ElementWork(ops)
	chol, err := numeric.Factorize(pm, f)
	if err != nil {
		t.Fatal(err)
	}
	ldl, err := numeric.FactorizeLDL(pm, f)
	if err != nil {
		t.Fatal(err)
	}
	return &numSys{
		name: name, m: pm, f: f, ops: ops, ew: ew,
		sys:  strategy.NewSys(f, ops, ew),
		chol: chol, ldl: ldl,
	}
}

// compile builds the program of s2's merged tile-segment task graph — what
// pipeline.Plan compiles once for a 2D plan and FactorizeParallel and
// Measure then run.
func (ns *numSys) compile(t testing.TB, s2 *Schedule2D) *exec.Program {
	t.Helper()
	tasks, elemTask := Tasks(ns.ops, ns.ew, s2)
	pg, err := exec.Compile(ns.f, s2.P, tasks, elemTask)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

// hbRoundtrip pushes a matrix through the Harwell-Boeing writer and reader
// so the sweep exercises the same path a real HB input takes.
func hbRoundtrip(t testing.TB, m *sparse.Matrix) *sparse.Matrix {
	t.Helper()
	var buf bytes.Buffer
	if err := hbio.Write(&buf, m, "fixture", "FIX01"); err != nil {
		t.Fatal(err)
	}
	rm, _, err := hbio.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

// mapperEntries enumerates every registered 2D strategy: the native
// mappers plus the col2d lift of every column-granular 1D strategy.
func mapperEntries() []struct {
	label, name string
	opts        strategy.Options
} {
	var out []struct {
		label, name string
		opts        strategy.Options
	}
	for _, name := range Names2D() {
		if name == "col2d" {
			continue
		}
		out = append(out, struct {
			label, name string
			opts        strategy.Options
		}{label: name, name: name})
	}
	for _, base := range LiftBases() {
		out = append(out, struct {
			label, name string
			opts        strategy.Options
		}{label: "col2d:" + base, name: "col2d", opts: strategy.Options{Base: base}})
	}
	return out
}

var bitIdentityProcs = []int{1, 2, 3, 4, 16, 64, 65}

// The tentpole property: for every registered 2D mapper and every col2d
// lift, at every processor count (including P > 64 and P > n on the 8x8
// grid), the parallel engine's factor is bit-for-bit equal to the serial
// reference — for both kernels. The col2d lifts at small P include
// programs that split columns into two tasks, and the sweep fails if none
// does. Run with -race this is also the engine's data-race exercise.
func TestParallelFactorizeBitIdentity(t *testing.T) {
	systems := []*numSys{
		buildNumSys(t, "LAP30", gen.Lap30()),
		buildNumSys(t, "grid9-8x8", gen.Grid9(8, 8)),
		buildNumSys(t, "hb-fegrid5", hbRoundtrip(t, gen.FEGrid5(5))),
	}
	split := 0
	for _, ns := range systems {
		for _, e := range mapperEntries() {
			for _, p := range bitIdentityProcs {
				s2, err := Map2D(e.name, ns.sys, p, e.opts)
				if err != nil {
					t.Fatalf("%s %s P=%d: map: %v", ns.name, e.label, p, err)
				}
				pg := ns.compile(t, s2)
				if e.name == "col2d" && pg.Tasks() > ns.f.N {
					split++
				}
				nf, _, err := pg.Run(ns.m, numeric.KernelCholesky, false)
				if err != nil {
					t.Fatalf("%s %s P=%d: cholesky: %v", ns.name, e.label, p, err)
				}
				for q := range ns.chol.Val {
					if math.Float64bits(nf.Val[q]) != math.Float64bits(ns.chol.Val[q]) {
						t.Fatalf("%s %s P=%d: cholesky diverged at %d: %g vs %g",
							ns.name, e.label, p, q, nf.Val[q], ns.chol.Val[q])
					}
				}
				lf, _, err := pg.Run(ns.m, numeric.KernelLDL, false)
				if err != nil {
					t.Fatalf("%s %s P=%d: ldl: %v", ns.name, e.label, p, err)
				}
				for q := range ns.ldl.Val {
					if math.Float64bits(lf.Val[q]) != math.Float64bits(ns.ldl.Val[q]) {
						t.Fatalf("%s %s P=%d: ldl diverged at %d: %g vs %g",
							ns.name, e.label, p, q, lf.Val[q], ns.ldl.Val[q])
					}
				}
			}
		}
	}
	if split == 0 {
		t.Fatal("no col2d program split a column")
	}
	t.Logf("%d col2d programs split columns", split)
}

// Measure must verify bit-identity on every repeat, produce well-formed
// real events (one per task, ns timeline), and those events must aggregate
// through the tolerant real-profile builder with busy time conserved.
func TestMeasureRealEvents(t *testing.T) {
	ns := buildNumSys(t, "grid9-8x8", gen.Grid9(8, 8))
	for _, p := range []int{1, 4} {
		s2, err := Map2D("rect2dcyclic", ns.sys, p, strategy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tasks, _ := Tasks(ns.ops, ns.ew, s2)
		mes, err := ns.compile(t, s2).Measure(ns.m, exec.MeasureOptions{Repeats: 2})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if mes.SerialNs < 1 || mes.ParallelNs < 1 || !(mes.Speedup > 0) {
			t.Fatalf("P=%d: degenerate measurement %+v", p, mes)
		}
		if len(mes.Events) != len(tasks) {
			t.Fatalf("P=%d: %d events, want %d", p, len(mes.Events), len(tasks))
		}
		var busy int64
		for i, ev := range mes.Events {
			if int(ev.Task) != i {
				t.Fatalf("P=%d: events not sorted by task: %d at %d", p, ev.Task, i)
			}
			if ev.Finish < ev.Start || ev.Work != ev.Finish-ev.Start || ev.Comm != 0 {
				t.Fatalf("P=%d: malformed event %+v", p, ev)
			}
			busy += ev.Work
		}
		prof, err := obs.RealProfile(mes.Events, s2.P)
		if err != nil {
			t.Fatalf("P=%d: real profile: %v", p, err)
		}
		if prof.Busy() != busy {
			t.Fatalf("P=%d: profile busy %d, events sum %d", p, prof.Busy(), busy)
		}
		if prof.Makespan < mes.Events[0].Finish {
			t.Fatalf("P=%d: makespan %d below first finish", p, prof.Makespan)
		}
		if prof.Critical != nil {
			t.Fatalf("P=%d: real profile must not claim a critical path", p)
		}
	}
}

// LDL measurement exercises the other kernel through the same harness.
func TestMeasureLDL(t *testing.T) {
	ns := buildNumSys(t, "hb-fegrid5", hbRoundtrip(t, gen.FEGrid5(5)))
	s2, err := Map2D("rect2d", ns.sys, 4, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mes, err := ns.compile(t, s2).Measure(ns.m, exec.MeasureOptions{Kernel: numeric.KernelLDL, Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	for q := range ns.ldl.Val {
		if math.Float64bits(mes.Factor.Val[q]) != math.Float64bits(ns.ldl.Val[q]) {
			t.Fatalf("ldl measurement factor diverged at %d", q)
		}
	}
}

// One compiled Program serves any values with its pattern, from any number
// of goroutines at once: a tile graph (partial-column tasks), a lifted
// column graph (whole-column tasks) and a unit-block graph (multi-column
// tasks) each factor an SPD matrix, a rescaled one and an indefinite one
// (LDLᵀ), sequentially and then concurrently, every result bitwise the
// serial kernel's. Recorded events name as Cause only a predecessor that
// had finished.
func TestProgramReuseAcrossValues(t *testing.T) {
	ns := buildNumSys(t, "grid9-12x12", gen.Grid9(12, 12))
	scaledBy := func(c float64) *sparse.Matrix {
		m := *ns.m
		m.Val = make([]float64, len(ns.m.Val))
		for q, v := range ns.m.Val {
			m.Val[q] = c * v
		}
		return &m
	}
	indefinite := scaledBy(1)
	for j := 0; j < indefinite.N; j += 3 {
		indefinite.Val[indefinite.ColPtr[j]] *= -1
	}
	wantLDL, err := numeric.FactorizeLDL(indefinite, ns.f)
	if err != nil {
		t.Fatal(err)
	}
	if _, neg, _ := wantLDL.Inertia(); neg == 0 {
		t.Fatal("the indefinite fixture has no negative pivot")
	}
	scaled := scaledBy(1.75)
	wantScaled, err := numeric.Factorize(scaled, ns.f)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		m    *sparse.Matrix
		k    numeric.Kernel
		want []float64
	}{
		{"spd", ns.m, numeric.KernelCholesky, ns.chol.Val},
		{"rescaled", scaled, numeric.KernelCholesky, wantScaled.Val},
		{"indefinite", indefinite, numeric.KernelLDL, wantLDL.Val},
	}

	// tasks is the graph the program was compiled from; the block program
	// adds scale edges of its own, so its causes are checked for order only.
	type entry struct {
		name  string
		pg    *exec.Program
		tasks []exec.Task
	}
	var entries []entry
	for _, e := range []struct {
		name string
		opts strategy.Options
	}{{"rect2dcyclic", strategy.Options{}}, {"col2d", strategy.Options{Base: "wrap"}}} {
		s2, err := Map2D(e.name, ns.sys, 4, e.opts)
		if err != nil {
			t.Fatal(err)
		}
		tasks, elemTask := Tasks(ns.ops, ns.ew, s2)
		pg, err := exec.Compile(ns.f, s2.P, tasks, elemTask)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, entry{e.name, pg, tasks})
	}
	sc, err := strategy.Map("block", ns.sys, 4, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	part := ns.sys.Partition(strategy.Options{}.Part)
	blocks, err := exec.Compile(part.F, sc.P, exec.BlockTasks(part, sc), part.ElemUnit)
	if err != nil {
		t.Fatal(err)
	}
	entries = append(entries, entry{"block", blocks, nil})

	for _, e := range entries {
		pg, tasks := e.pg, e.tasks
		run := func(record bool) func(i int) error {
			return func(i int) error {
				c := cases[i%len(cases)]
				nf, events, err := pg.Run(c.m, c.k, record)
				if err != nil {
					return fmt.Errorf("%s %s: %v", e.name, c.name, err)
				}
				for q := range c.want {
					if math.Float64bits(nf.Val[q]) != math.Float64bits(c.want[q]) {
						return fmt.Errorf("%s %s: diverged at %d: %g vs %g", e.name, c.name, q, nf.Val[q], c.want[q])
					}
				}
				for _, ev := range events {
					if ev.Cause < 0 {
						continue
					}
					named := tasks == nil
					if !named {
						preds := tasks[ev.Task].Preds
						k := sort.Search(len(preds), func(k int) bool { return preds[k] >= ev.Cause })
						named = k < len(preds) && preds[k] == ev.Cause
					}
					if !named || events[ev.Cause].Finish > ev.Start {
						return fmt.Errorf("%s %s: task %d names cause %d, not a finished predecessor", e.name, c.name, ev.Task, ev.Cause)
					}
				}
				return nil
			}
		}
		for i := 0; i < 2*len(cases); i++ {
			if err := run(i%2 == 0)(i); err != nil {
				t.Fatal(err)
			}
		}
		errs := make(chan error)
		const callers = 6
		for i := 0; i < callers; i++ {
			go func(i int) { errs <- run(i%2 == 0)(i) }(i)
		}
		for i := 0; i < callers; i++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}
}
