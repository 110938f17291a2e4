package tables

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
)

// TestCalibrationShapes runs the Ext-Cal study end to end on the small
// golden problem: full strategy x P coverage, a usable fit and both
// predictions populated on every row.
func TestCalibrationShapes(t *testing.T) {
	p := commGoldenProblem(t)
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	procs := []int{1, 2}
	st, err := Calibration(must(Measured(p, procs, nil, cm, 1))(t))
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
		if r.CalSpan < r.PredMakespan {
			// The fitted model adds a non-negative Gamma to every task on
			// top of non-negative comm terms, but its Alpha/Beta can fit
			// below the caller's 2/10 — so no ordering between spans is
			// guaranteed in general; only positivity is.
			continue
		}
	}
	if len(perP) != len(procs) {
		t.Fatalf("P groups %v, want one per %v", perP, procs)
	}

	out := FormatCalibration(p.Meta.Name, cm, st)
	for _, want := range []string{"Ext-Cal", "rect2dcyclic", "speedup MAPE", "gamma="} {
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
	st, err := Calibration(must(Measured(p, []int{1, 4, 16}, nil, cm, 1))(t))
	if err != nil {
		t.Fatal(err)
	}
	if !(st.MAPECal < st.MAPEUncal) {
		t.Fatalf("calibrated MAPE %.1f%% not below uncalibrated %.1f%%", st.MAPECal, st.MAPEUncal)
	}
	t.Logf("LAP30 speedup MAPE: uncalibrated %.1f%%, calibrated %.1f%% (fit %+v, ns/work %.3g, R2 %.3f)",
		st.MAPEUncal, st.MAPECal, st.Model.Comm, st.Model.NsPerWork, st.Report.R2)
}
