package exec_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/numeric"
	"repro/internal/order"
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
