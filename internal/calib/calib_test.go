package calib

import (
	"fmt"
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
		tasks[i] = exec.Task{Work: w}
		tc.Vol[i], tc.Msgs[i] = v, m
		dur := int64(math.Round(scale * (float64(w) + alpha*float64(v) + beta*float64(m) + gamma)))
		events[i] = exec.TaskEvent{Task: int32(i), Proc: int32(i % 4), Start: 0, Finish: dur, Work: dur}
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
		tasks[i] = exec.Task{Work: w}
		tc.Vol[i] = int64(n - i) // anti-correlated with duration
		events[i] = exec.TaskEvent{Task: int32(i), Finish: 10 * w, Work: 10 * w}
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
	events[3].Finish, events[3].Work = events[3].Start, 0    // zero duration
	events[7].Finish, events[7].Work = events[7].Start-5, -5 // negative duration
	_, report, err := Calibrate(events, tasks, tc)           //nolint
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
// events, mismatched fetch stats. The last two are errors on their own,
// with no valid event before them, and fetch stats that do not cover the
// graph are rejected even for an empty run.
func TestFitterErrors(t *testing.T) {
	if _, _, err := Fit(nil); err == nil {
		t.Error("Fit on no samples: no error")
	}
	tasks := []exec.Task{{Work: 5}}
	if _, err := Samples([]exec.TaskEvent{{Task: 9, Finish: 10}}, tasks, nil); err == nil {
		t.Error("out-of-range event task: no error")
	}
	bad := &traffic.TaskComm{Vol: make([]int64, 3), Msgs: make([]int64, 3)}
	if _, err := Samples([]exec.TaskEvent{{Task: 0, Finish: 10}}, tasks, bad); err == nil {
		t.Error("mismatched fetch stats: no error")
	}
	if _, err := Samples(nil, tasks, bad); err == nil {
		t.Error("mismatched fetch stats on an empty run: no error")
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
		tasks[i] = exec.Task{Work: w}
		events[i] = exec.TaskEvent{Task: int32(i), Finish: 4*w + 100, Work: 4*w + 100}
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

// clampCase is a sample set on which dropping the most negative term and
// refitting (an active-set clamp) settles on work alone, SSR 1.159e6,
// while pricing vol as well fits better: work 7.26 + vol 8.11, SSR
// 1.089e6.
var clampCase = []Sample{{494, 38, 24, 3}, {662, 12, 31, 9}, {918, 52, 6, 1}, {24, 67, 34, 7}, {967, 43, 26, 2}}

// normal returns AᵀA and Aᵀy of the samples' design.
func normal(samples []Sample) (ata [4][4]float64, aty [4]float64) {
	for _, s := range samples {
		x := row(s)
		for i := range x {
			for j := range x {
				ata[i][j] += x[i] * x[j]
			}
			aty[i] += x[i] * float64(s.DurNs)
		}
	}
	return ata, aty
}

// nnlsOracle is the non-negative least-squares optimum over all four
// terms, work held to >= 0 like the others, by cyclic coordinate descent
// on the normal equations: an independent route to the optimum that
// enumerates no supports.
func nnlsOracle(samples []Sample) [4]float64 {
	ata, aty := normal(samples)
	var c [4]float64
	for range 200000 {
		moved := 0.0
		for i := range c {
			g := -aty[i]
			for j := range c {
				g += ata[i][j] * c[j]
			}
			next := max(0, c[i]-g/ata[i][i])
			moved = max(moved, math.Abs(next-c[i])/max(1, math.Abs(next)))
			c[i] = next
		}
		if moved < 1e-14 {
			break
		}
	}
	return c
}

// TestFitIsNonNegativeOptimum holds Fit to the KKT conditions of
// non-negative least squares: at the returned coefficients c the gradient
// g = Aᵀ(Ac − y) vanishes on every positive coefficient and is
// non-negative on every zeroed non-work term, so no feasible direction
// lowers the residual. Tolerances scale with ‖Aᵀy‖. The zeroed-term
// condition holds wherever the optimum prices work at all (nnlsOracle's
// work rate is positive); a set whose optimum is overhead alone has no
// best fit with a positive work rate, so there Fit keeps the best
// support that prices work, which clampCase pins. It runs over clampCase
// and 300 seeded random sample sets whose durations carry a work signal
// under noise.
func TestFitIsNonNegativeOptimum(t *testing.T) {
	kkt := func(name string, samples []Sample, zeroed bool) [4]float64 {
		t.Helper()
		m, _, err := Fit(samples)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := m.NsPerWork
		c := [4]float64{s, m.Comm.Alpha * s, m.Comm.Beta * s, m.Comm.Gamma * s}
		ata, aty := normal(samples)
		tol := 1e-9 * math.Sqrt(aty[0]*aty[0]+aty[1]*aty[1]+aty[2]*aty[2]+aty[3]*aty[3])
		for i := range c {
			g := -aty[i]
			for j := range c {
				g += ata[i][j] * c[j]
			}
			if c[i] < 0 || (i == 0 && c[i] == 0) {
				t.Errorf("%s: %s = %g infeasible", name, termNames[i], c[i])
			}
			if c[i] > 0 && math.Abs(g) > tol {
				t.Errorf("%s: %s = %g is positive but its gradient is %g (tol %g)", name, termNames[i], c[i], g, tol)
			}
			if zeroed && c[i] == 0 && g < -tol {
				t.Errorf("%s: %s is zeroed but its gradient is %g < 0: pricing it lowers the residual", name, termNames[i], g)
			}
		}
		return c
	}
	if o := nnlsOracle(clampCase); o[0] != 0 {
		t.Fatalf("clampCase optimum %v prices work; the case is meant to have none", o)
	}
	c := kkt("clampCase", clampCase, false)
	if math.Abs(c[0]-7.26) > 0.005 || math.Abs(c[1]-8.11) > 0.005 || c[2] != 0 || c[3] != 0 {
		t.Errorf("clampCase fit %v, want work 7.26 and vol 8.11 alone", c)
	}
	state := uint64(2024)
	next := func(mod int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		return int64(state>>33) % mod
	}
	checked := 0
	for trial := range 300 {
		samples := make([]Sample, 5+next(20))
		rate := 1 + next(20)
		for i := range samples {
			s := Sample{Work: 1 + next(100), Vol: next(40), Msgs: next(10)}
			s.DurNs = rate*s.Work + next(1000)
			samples[i] = s
		}
		pricesWork := nnlsOracle(samples)[0] > 0
		kkt(fmt.Sprintf("trial %d", trial), samples, pricesWork)
		if pricesWork {
			checked++
		}
	}
	if checked < 200 {
		t.Errorf("only %d of 300 random sets price work at the optimum, want >= 200", checked)
	}
}
