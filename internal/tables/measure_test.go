package tables

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
)

// TestMeasuredShapes runs the Ext-W study end to end on the small golden
// problem: one row per (P, 2D strategy), sane timings and a positive
// prediction.
func TestMeasuredShapes(t *testing.T) {
	p := commGoldenProblem(t)
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	procs := []int{1, 2}
	st, err := Measured(p, procs, nil, cm, 1)
	if err != nil {
		t.Fatal(err)
	}
	perP := make(map[int]int)
	for _, r := range st.Rows {
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

	out := FormatMeasured(p.Meta.Name, cm, st)
	if !strings.Contains(out, "Ext-W") || !strings.Contains(out, "rect2dcyclic") {
		t.Fatalf("formatted study missing content:\n%s", out)
	}
}

// TestCalibrationShapes checks the fit half of the same study on the small
// golden problem: a usable pooled fit, both predictions populated on every
// row and the fit's summary in the rendered table.
func TestCalibrationShapes(t *testing.T) {
	p := commGoldenProblem(t)
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	procs := []int{1, 2}
	st, err := Measured(p, procs, nil, cm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(st.Model.NsPerWork > 0) {
		t.Fatalf("fit produced non-positive scale: %+v", st.Model)
	}
	if st.Model.Comm.Alpha < 0 || st.Model.Comm.Beta < 0 || st.Model.Comm.Gamma < 0 {
		t.Fatalf("fit produced a negative coefficient: %+v", st.Model.Comm)
	}
	if st.Report.Samples < 10 {
		t.Fatalf("fit saw only %d samples", st.Report.Samples)
	}
	perP := make(map[int]int)
	for _, r := range st.Rows {
		perP[r.P]++
		if r.ParallelNs < 1 || !(r.Speedup > 0) {
			t.Errorf("%s P=%d: degenerate timing %+v", r.Strategy, r.P, r)
		}
		if !(r.PredSpeedup > 0) || !(r.CalSpeedup > 0) {
			t.Errorf("%s P=%d: degenerate prediction %+v", r.Strategy, r.P, r)
		}
		if r.CalNs < 1 || r.UncalNs < 1 {
			t.Errorf("%s P=%d: degenerate ns prediction %+v", r.Strategy, r.P, r)
		}
	}
	if len(perP) != len(procs) {
		t.Fatalf("P groups %v, want one per %v", perP, procs)
	}

	out := FormatMeasured(p.Meta.Name, cm, st)
	for _, want := range []string{"Ext-W", "rect2dcyclic", "speedup MAPE", "gamma="} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted study missing %q:\n%s", want, out)
		}
	}
}

// TestCalibrationImprovesMAPE is the acceptance pin: on LAP30's measured
// runs the calibrated model's predicted-speedup MAPE must be strictly
// lower than the uncalibrated model's. The uncalibrated work-unit model
// over-predicts speedups by an order of magnitude at this scale (Ext-W),
// while the calibrated fit prices the measured per-task overhead, so the
// margin is large and stable despite wall-clock noise.
func TestCalibrationImprovesMAPE(t *testing.T) {
	if testing.Short() {
		t.Skip("real measured runs on LAP30")
	}
	p, err := LoadProblem(gen.TestMatrix{Name: "LAP30", Build: gen.Lap30})
	if err != nil {
		t.Fatal(err)
	}
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	st, err := Measured(p, []int{1, 4, 16}, nil, cm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(st.MAPECal < st.MAPEUncal) {
		t.Fatalf("calibrated MAPE %.1f%% not below uncalibrated %.1f%%", st.MAPECal, st.MAPEUncal)
	}
	t.Logf("LAP30 speedup MAPE: uncalibrated %.1f%%, calibrated %.1f%% (fit %+v, ns/work %.3g, R2 %.3f)",
		st.MAPEUncal, st.MAPECal, st.Model.Comm, st.Model.NsPerWork, st.Report.R2)
}
