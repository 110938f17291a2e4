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
	ew   []uint32
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
	ew := model.Work(ops)
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
		sys:  strategy.NewSys(f, ops, nil),
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
// through the tolerant real-profile builder with busy time conserved. A
// wrap plan at P = 1 on MMD-ordered Grid9(40,40) runs numeric's serial
// list, which holds chunk steps: the events of a chunk's columns tile
// its step's interval, each starting where the one before finished.
func TestMeasureRealEvents(t *testing.T) {
	type measured struct {
		name  string
		p     int
		tasks int
		pg    *exec.Program
		ns    *numSys
	}
	ns := buildNumSys(t, "grid9-8x8", gen.Grid9(8, 8))
	var cases []measured
	for _, p := range []int{1, 4} {
		s2, err := Map2D("rect2dcyclic", ns.sys, p, strategy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tasks, _ := Tasks(ns.ops, ns.ew, s2)
		cases = append(cases, measured{"rect2dcyclic", p, len(tasks), ns.compile(t, s2), ns})
	}
	grid := buildNumSys(t, "grid9-40x40", gen.Grid9(40, 40))
	sc, err := strategy.Map("wrap", grid.sys, 1, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wrap, err := exec.Compile(grid.f, 1, strategy.Tasks(grid.sys, strategy.Options{}, sc), nil)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, measured{"wrap", 1, grid.f.N, wrap, grid})
	for _, c := range cases {
		p := c.p
		mes, err := c.pg.Measure(c.ns.m, exec.MeasureOptions{Repeats: 2})
		if err != nil {
			t.Fatalf("%s P=%d: %v", c.name, p, err)
		}
		if mes.SerialNs < 1 || mes.ParallelNs < 1 || !(mes.Speedup > 0) {
			t.Fatalf("%s P=%d: degenerate measurement %+v", c.name, p, mes)
		}
		if len(mes.Events) != c.tasks {
			t.Fatalf("%s P=%d: %d events, want %d", c.name, p, len(mes.Events), c.tasks)
		}
		var busy int64
		for i, ev := range mes.Events {
			if int(ev.Task) != i {
				t.Fatalf("%s P=%d: events not sorted by task: %d at %d", c.name, p, ev.Task, i)
			}
			if ev.Finish < ev.Start || ev.Work != ev.Finish-ev.Start || ev.Comm != 0 {
				t.Fatalf("%s P=%d: malformed event %+v", c.name, p, ev)
			}
			busy += ev.Work
		}
		prof, err := obs.RealProfile(mes.Events, p)
		if err != nil {
			t.Fatalf("%s P=%d: real profile: %v", c.name, p, err)
		}
		if prof.Summary().Busy != busy {
			t.Fatalf("%s P=%d: profile busy %d, events sum %d", c.name, p, prof.Summary().Busy, busy)
		}
		if prof.Makespan < mes.Events[0].Finish {
			t.Fatalf("%s P=%d: makespan %d below first finish", c.name, p, prof.Makespan)
		}
		if prof.Critical != nil {
			t.Fatalf("%s P=%d: real profile must not claim a critical path", c.name, p)
		}
		if c.name != "wrap" {
			continue
		}
		chunks := 0
		for _, s := range numeric.SerialSteps(c.ns.f) {
			if s.W == 1 {
				continue
			}
			chunks++
			for r := int(s.J) + 1; r < int(s.J+int32(s.W)); r++ {
				if ev := mes.Events[r]; ev.Start != mes.Events[r-1].Finish || ev.Stall != 0 {
					t.Fatalf("wrap P=1: column %d of the chunk from %d starts at %d, stalls %d; the column before finished at %d",
						r, s.J, ev.Start, ev.Stall, mes.Events[r-1].Finish)
				}
			}
		}
		if chunks == 0 {
			t.Fatal("wrap P=1: the serial list holds no chunk step")
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
	neg := 0
	for j := 0; j < ns.f.N; j++ {
		if wantLDL.Val[ns.f.ColPtr[j]] < 0 {
			neg++
		}
	}
	if neg == 0 {
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
	// A cause is a predecessor, or for a split column a child of its last
	// source, its last predecessor.
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
						// A split column's first half also waits on the
						// children of its last source in its row.
						named = named || (len(preds) > 0 && ns.f.Parent[ev.Cause] == int(preds[len(preds)-1]) && ns.f.Has(int(ev.Task), int(ev.Cause)))
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
