package exec_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/numeric"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/strategy"
	"repro/internal/symbolic"
)

// A nil element map declares the column graph, and Compile takes no other
// graph under it: one task too few or too many is an error, and so is the
// graph of the full rows (task j waits on every column of row j, an order
// the tree implies but not the tree itself), at one worker and at two.
func TestCompileNilMapRejectsOtherGraphs(t *testing.T) {
	m := gen.Grid9(20, 20)
	pm, err := m.Permute(order.MMD(m))
	if err != nil {
		t.Fatal(err)
	}
	sys := strategy.NewSys(symbolic.Analyze(pm), nil, nil)
	f := sys.F
	for _, p := range []int{1, 2} {
		sc, err := strategy.Map("wrap", sys, p, strategy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tasks := strategy.Tasks(sys, strategy.Options{}, sc)
		if _, err := exec.Compile(f, p, tasks, nil); err != nil {
			t.Fatalf("P=%d: the column graph: %v", p, err)
		}
		full := slices.Clone(tasks)
		for j, row := range exec.FullRows(f) {
			full[j].Preds = row
		}
		for name, g := range map[string][]exec.Task{
			"one task short":    tasks[:f.N-1],
			"one task too many": append(slices.Clone(tasks), exec.Task{}),
			"the full rows":     full,
		} {
			if _, err := exec.Compile(f, p, g, nil); err == nil {
				t.Errorf("P=%d: %s compiles under a nil element map", p, name)
			}
		}
	}
}

// The column graph compiled with the column index as an explicit map
// takes the general step layout: no column splits (Tasks() == n), and the
// factor is bit for bit the nil-map program's, which splits columns under
// wrap at P = 2.
func TestCompileColumnIndexMapDoesNotSplit(t *testing.T) {
	m := gen.Grid9(30, 30)
	pm, err := m.Permute(order.MMD(m))
	if err != nil {
		t.Fatal(err)
	}
	sys := strategy.NewSys(symbolic.Analyze(pm), nil, nil)
	f := sys.F
	sc, err := strategy.Map("wrap", sys, 2, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tasks := strategy.Tasks(sys, strategy.Options{}, sc)
	column, err := exec.Compile(f, 2, tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := exec.Compile(f, 2, tasks, f.ColIndex())
	if err != nil {
		t.Fatal(err)
	}
	if column.Tasks() <= f.N || mapped.Tasks() != f.N {
		t.Fatalf("%d columns: the nil-map program runs %d tasks, want more; the mapped one %d, want %d", f.N, column.Tasks(), mapped.Tasks(), f.N)
	}
	want, err := numeric.Factorize(pm, f)
	if err != nil {
		t.Fatal(err)
	}
	for name, pg := range map[string]*exec.Program{"nil map": column, "column index": mapped} {
		got, _, err := pg.Run(pm, numeric.KernelCholesky, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for q := range want.Val {
			if math.Float64bits(got.Val[q]) != math.Float64bits(want.Val[q]) {
				t.Fatalf("%s: position %d: %g, serial %g", name, q, got.Val[q], want.Val[q])
			}
		}
	}
}

// TestEngineP1RunsSerialList: a column graph compiled at P = 1 runs
// numeric's serial list itself — the list Kernel.Factorize runs, chunk
// steps included — and its factor is Factorize's bit for bit, over the
// suite in natural and MMD order and both kernels; outside -short also on
// Grid9(60,60) in MMD order, whose list must hold a chunk step.
func TestEngineP1RunsSerialList(t *testing.T) {
	type matrixCase struct {
		name  string
		m     *sparse.Matrix
		chunk bool // the list must hold a chunk step
	}
	var cases []matrixCase
	for _, tm := range gen.Suite() {
		cases = append(cases, matrixCase{tm.Name, tm.Build(), false})
	}
	if !testing.Short() {
		cases = append(cases, matrixCase{"GRID9_60", gen.Grid9(60, 60), true})
	}
	for _, c := range cases {
		for _, ord := range []string{"natural", "mmd"} {
			if c.chunk && ord == "natural" {
				continue
			}
			perm := order.Natural(c.m.N)
			if ord == "mmd" {
				perm = order.MMD(c.m)
			}
			pm, err := c.m.Permute(perm)
			if err != nil {
				t.Fatal(err)
			}
			sys := strategy.NewSys(symbolic.Analyze(pm), nil, nil)
			f := sys.F
			sc, err := strategy.Map("wrap", sys, 1, strategy.Options{})
			if err != nil {
				t.Fatal(err)
			}
			pg, err := exec.Compile(f, 1, strategy.Tasks(sys, strategy.Options{}, sc), nil)
			if err != nil {
				t.Fatal(err)
			}
			want := numeric.SerialSteps(f)
			if got := exec.InlineSteps(pg); !slices.Equal(got, want) {
				t.Fatalf("%s/%s: the one-worker program runs %d steps, not the serial list's %d", c.name, ord, len(got), len(want))
			}
			if c.chunk && !slices.ContainsFunc(want, func(s numeric.Step) bool { return s.W > 1 }) {
				t.Fatalf("%s/%s: the serial list holds no chunk step", c.name, ord)
			}
			for _, k := range []numeric.Kernel{numeric.KernelCholesky, numeric.KernelLDL} {
				serial, err := k.Factorize(pm, f)
				if err != nil {
					t.Fatal(err)
				}
				fa, _, err := pg.Run(pm, k, false)
				if err != nil {
					t.Fatalf("%s/%s %v: %v", c.name, ord, k, err)
				}
				for q := range serial {
					if math.Float64bits(fa.Val[q]) != math.Float64bits(serial[q]) {
						t.Fatalf("%s/%s %v: position %d: %g, serial %g", c.name, ord, k, q, fa.Val[q], serial[q])
					}
				}
			}
		}
	}
}
