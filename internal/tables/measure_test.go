package tables

import (
	"strings"
	"testing"

	"repro/internal/exec"
)

// TestMeasuredShapes runs the Ext-W study end to end on the small golden
// problem: one row per (P, 2D strategy), sane timings and a positive
// prediction.
func TestMeasuredShapes(t *testing.T) {
	p := commGoldenProblem(t)
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	procs := []int{1, 2}
	rows, err := Measured(p, procs, nil, cm, 1)
	if err != nil {
		t.Fatal(err)
	}
	perP := make(map[int]int)
	for _, r := range rows {
		perP[r.P]++
		if r.SerialNs < 1 || r.ParallelNs < 1 || !(r.Speedup > 0) {
			t.Errorf("%s P=%d: degenerate timing %+v", r.Strategy, r.P, r)
		}
		if r.PredMakespan < 1 || !(r.PredSpeedup > 0) {
			t.Errorf("%s P=%d: degenerate prediction %+v", r.Strategy, r.P, r)
		}
		if r.Repeats != 1 {
			t.Errorf("%s P=%d: repeats %d, want 1", r.Strategy, r.P, r.Repeats)
		}
		if r.P == 1 && r.Traffic != 0 {
			t.Errorf("P=1 row communicates: %+v", r)
		}
	}
	if len(perP) != len(procs) {
		t.Fatalf("P groups %v, want one per %v", perP, procs)
	}
	perEntry := perP[procs[0]]
	for _, np := range procs {
		if perP[np] != perEntry {
			t.Fatalf("uneven strategy coverage across P: %v", perP)
		}
	}

	out := FormatMeasured(p.Meta.Name, cm, rows)
	if !strings.Contains(out, "Ext-W") || !strings.Contains(out, "rect2dcyclic") {
		t.Fatalf("formatted study missing content:\n%s", out)
	}

}
