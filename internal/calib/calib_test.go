package calib

import (
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/traffic"
)

// synthEvents builds a noise-free measured run from a known ground-truth
// model: task i's duration is exactly scale*(work + alpha*vol + beta*msgs
// + gamma) nanoseconds. A deterministic LCG varies the regressors so the
// four columns are independent.
func synthEvents(n int, scale, alpha, beta, gamma float64) ([]exec.TaskEvent, []exec.Task, *traffic.TaskComm) {
	tasks := make([]exec.Task, n)
	tc := &traffic.TaskComm{Vol: make([]int64, n), Msgs: make([]int64, n)}
	events := make([]exec.TaskEvent, n)
	state := uint64(12345)
	next := func(mod int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		return int64(state>>33) % mod
	}
	for i := 0; i < n; i++ {
		w := 1 + next(400)
		v := next(50)
		m := next(6)
		tasks[i] = exec.Task{ID: i, Work: w}
		tc.Vol[i], tc.Msgs[i] = v, m
		dur := int64(math.Round(scale * (float64(w) + alpha*float64(v) + beta*float64(m) + gamma)))
		events[i] = exec.TaskEvent{Task: int32(i), Proc: int32(i % 4), Start: 0, Finish: dur}
	}
	return events, tasks, tc
}

// TestCalibrateRecoversKnownModel is the synthetic golden test: a fit on
// noise-free events generated from a known {Alpha, Beta, Gamma, scale}
// must recover every parameter within 2%.
func TestCalibrateRecoversKnownModel(t *testing.T) {
	const scale, alpha, beta, gamma = 12.5, 2.0, 10.0, 40.0
	events, tasks, tc := synthEvents(500, scale, alpha, beta, gamma)
	model, report, err := Calibrate(events, tasks, tc)
	if err != nil {
		t.Fatal(err)
	}
	within := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 0.02*want {
			t.Errorf("%s = %g, want %g within 2%%", name, got, want)
		}
	}
	within("NsPerWork", model.NsPerWork, scale)
	within("Alpha", model.Comm.Alpha, alpha)
	within("Beta", model.Comm.Beta, beta)
	within("Gamma", model.Comm.Gamma, gamma)
	if report.R2 < 0.999 {
		t.Errorf("R2 = %g on noise-free data, want ~1", report.R2)
	}
	if report.Samples != 500 || report.Dropped != 0 {
		t.Errorf("report samples=%d dropped=%d, want 500/0", report.Samples, report.Dropped)
	}
	if len(report.Terms) != 4 {
		t.Errorf("terms %v, want all four", report.Terms)
	}
	// Rounding noise only: the residual tail stays within the rounding of
	// the synthetic durations (sub-scale), and the histogram counts every
	// sample with a nonzero residual.
	if report.ResidualP99 > int64(math.Ceil(scale)) {
		t.Errorf("ResidualP99 = %d ns, want <= %g (rounding only)", report.ResidualP99, scale)
	}
	if report.Residuals.Count > int64(report.Samples) {
		t.Errorf("histogram count %d exceeds samples %d", report.Residuals.Count, report.Samples)
	}
}

// TestCalibrateDeterministic pins that the same events produce the same
// model, bit for bit — calib is on the determinism-critical path.
func TestCalibrateDeterministic(t *testing.T) {
	events, tasks, tc := synthEvents(200, 7.25, 1.5, 8, 25)
	m1, r1, err := Calibrate(events, tasks, tc)
	if err != nil {
		t.Fatal(err)
	}
	m2, r2, err := Calibrate(events, tasks, tc)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Comm != m2.Comm || m1.NsPerWork != m2.NsPerWork {
		t.Errorf("models differ across identical fits: %+v vs %+v", m1, m2)
	}
	if r1.R2 != r2.R2 || r1.ResidualP90 != r2.ResidualP90 {
		t.Errorf("reports differ across identical fits")
	}
}

// TestCalibrateClampsNegative feeds durations that depend only on work,
// with a vol column anti-correlated with duration — the unconstrained fit
// would price Vol negative; the clamp must drop it and keep the model
// non-negative.
func TestCalibrateClampsNegative(t *testing.T) {
	n := 100
	tasks := make([]exec.Task, n)
	tc := &traffic.TaskComm{Vol: make([]int64, n), Msgs: make([]int64, n)}
	events := make([]exec.TaskEvent, n)
	for i := 0; i < n; i++ {
		w := int64(1 + i)
		tasks[i] = exec.Task{ID: i, Work: w}
		tc.Vol[i] = int64(n - i) // anti-correlated with duration
		events[i] = exec.TaskEvent{Task: int32(i), Finish: 10 * w}
	}
	model, report, err := Calibrate(events, tasks, tc)
	if err != nil {
		t.Fatal(err)
	}
	if model.Comm.Alpha < 0 || model.Comm.Beta < 0 || model.Comm.Gamma < 0 {
		t.Errorf("clamp failed: %+v has a negative coefficient", model.Comm)
	}
	for _, term := range report.Terms {
		if term == "vol" {
			t.Errorf("anti-correlated vol column survived the clamp: %v", report.Terms)
		}
	}
}

// TestCalibrateDropsDegenerate counts zero- and negative-duration events
// as dropped instead of fitting them.
func TestCalibrateDropsDegenerate(t *testing.T) {
	events, tasks, tc := synthEvents(50, 10, 2, 10, 30)
	events[3].Finish = events[3].Start             // zero duration
	events[7].Finish = events[7].Start - 5         // negative duration
	_, report, err := Calibrate(events, tasks, tc) //nolint
	if err != nil {
		t.Fatal(err)
	}
	if report.Dropped != 2 {
		t.Errorf("dropped = %d, want 2", report.Dropped)
	}
	if report.Samples != 48 {
		t.Errorf("samples = %d, want 48", report.Samples)
	}
}

// TestFitterErrors pins the failure modes: too few samples, out-of-range
// events, mismatched fetch stats.
func TestFitterErrors(t *testing.T) {
	f := NewFitter()
	if _, _, err := f.Fit(); err == nil {
		t.Error("Fit on empty fitter: no error")
	}
	tasks := []exec.Task{{ID: 0, Work: 5}}
	if err := f.Add([]exec.TaskEvent{{Task: 9, Finish: 10}}, tasks, nil); err == nil {
		t.Error("out-of-range event task: no error")
	}
	bad := &traffic.TaskComm{Vol: make([]int64, 3), Msgs: make([]int64, 3)}
	if err := f.Add([]exec.TaskEvent{{Task: 0, Finish: 10}}, tasks, bad); err == nil {
		t.Error("mismatched fetch stats: no error")
	}
}

// TestCalibrateNilFetchStats fits a work-plus-constant model when no
// fetch attribution is supplied.
func TestCalibrateNilFetchStats(t *testing.T) {
	n := 60
	tasks := make([]exec.Task, n)
	events := make([]exec.TaskEvent, n)
	for i := 0; i < n; i++ {
		w := int64(1 + (i*7)%97)
		tasks[i] = exec.Task{ID: i, Work: w}
		events[i] = exec.TaskEvent{Task: int32(i), Finish: 4*w + 100}
	}
	model, _, err := Calibrate(events, tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(model.NsPerWork-4) > 0.1 {
		t.Errorf("NsPerWork = %g, want ~4", model.NsPerWork)
	}
	if math.Abs(model.Comm.Gamma-25) > 1 {
		t.Errorf("Gamma = %g, want ~25 (100ns / 4ns-per-unit)", model.Comm.Gamma)
	}
}
