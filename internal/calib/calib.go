// Package calib fits the communication-time model of the makespan
// simulators (exec.CommModel, including the per-task fixed-overhead term
// Gamma) to the measured per-task durations the real parallel engine
// emits (exec.Program.Measure's TaskEvents). The fit is a non-negative
// least-squares regression of each task's wall-clock nanoseconds on its
// compute work, fetch volume, message count and a constant:
//
//	dur_ns ≈ s·work + a·vol + b·msgs + g
//
// The work coefficient s is the machine's serial rate in nanoseconds per
// work unit; dividing the other coefficients by it converts them into the
// simulators' work units, giving CalibratedModel{Comm: {Alpha: a/s,
// Beta: b/s, Gamma: g/s}, NsPerWork: s}. The simulators require
// non-negative charges, so the fit is the best non-negative support: of
// the least-squares fits over the subsets of the terms that keep work,
// the lowest residual with no negative coefficient and a positive work
// rate. That is the exact non-negative least-squares optimum whenever the
// optimum prices work at all. Samples extracts one run's samples; Fit
// pools any number of runs (several processor counts and mappers are what
// identify Alpha and Beta separately from Gamma). Everything is
// deterministic given the samples: same samples in, same model out.
package calib

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/traffic"
)

// Sample is one measured task execution: the regression target DurNs and
// the three regressors the cost model prices.
type Sample struct {
	DurNs int64 // measured wall-clock duration, nanoseconds
	Work  int64 // compute work units (multiply-add pairs)
	Vol   int64 // fetched non-local elements attributed to the task
	Msgs  int64 // consolidated messages received by the task
}

// CalibratedModel is a fitted cost model: the work-unit CommModel the
// simulators consume and the nanosecond scale that converts simulated spans
// into predicted wall clock.
type CalibratedModel struct {
	// Comm carries the fitted Alpha, Beta and Gamma in work units; feed it
	// to any comm-aware makespan simulator unchanged.
	Comm exec.CommModel
	// NsPerWork is the fitted serial rate: nanoseconds per work unit.
	// Multiply a simulated span by it to predict wall-clock nanoseconds.
	NsPerWork float64
}

// PredictTaskNs returns the model's wall-clock prediction for one task.
func (m CalibratedModel) PredictTaskNs(work, vol, msgs int64) float64 {
	return m.NsPerWork * (float64(work) + float64(m.Comm.Cost(vol, msgs)))
}

// SpanNs converts a simulated makespan (work units under m.Comm) into
// predicted wall-clock nanoseconds.
func (m CalibratedModel) SpanNs(makespan int64) float64 {
	return m.NsPerWork * float64(makespan)
}

// FitReport carries the fit diagnostics: sample accounting, goodness of
// fit, and the distribution of absolute residuals in nanoseconds — the
// percentiles plus a power-of-two histogram in the obs.Profile bucket
// idiom.
type FitReport struct {
	Samples int // measured events that entered the fit
	Dropped int // zero- or negative-duration events excluded (clock resolution)
	// Terms lists the regressors of the chosen support, in design order
	// out of "work", "vol", "msgs", "const"; a term is left out when every
	// fit that prices it non-negatively fits worse.
	Terms []string
	// R2 is the coefficient of determination of the final fit.
	R2 float64
	// ResidualP50/P90/P99 are percentiles of |measured - predicted| in ns.
	ResidualP50, ResidualP90, ResidualP99 int64
	// Residuals is the power-of-two histogram of absolute residuals (ns),
	// the same bucket idiom as obs.Profile's idle-gap histogram.
	Residuals obs.Histogram
}

// Samples extracts the samples of one measured run, one per event:
// events are exec.Program.Measure's real TaskEvents, tasks the graph they
// executed, and tc the per-task fetch attribution (nil charges no
// communication). A sample's duration is the event's Work, the task's busy
// time: Finish-Start for a task run whole, the two halves' sum for a split
// column. Zero- and negative-duration events are kept; Fit drops them.
func Samples(events []exec.TaskEvent, tasks []exec.Task, tc *traffic.TaskComm) ([]Sample, error) {
	if tc != nil && (len(tc.Vol) != len(tasks) || len(tc.Msgs) != len(tasks)) {
		return nil, fmt.Errorf("calib: fetch stats cover %d tasks, graph has %d", len(tc.Vol), len(tasks))
	}
	out := make([]Sample, len(events))
	for i, ev := range events {
		if ev.Task < 0 || int(ev.Task) >= len(tasks) {
			return nil, fmt.Errorf("calib: event for task %d, graph has %d tasks", ev.Task, len(tasks))
		}
		out[i] = Sample{DurNs: ev.Work, Work: tasks[ev.Task].Work}
		if tc != nil {
			out[i].Vol, out[i].Msgs = tc.Vol[ev.Task], tc.Msgs[ev.Task]
		}
	}
	return out, nil
}

// termNames indexes the design columns of the regression.
var termNames = [4]string{"work", "vol", "msgs", "const"}

// Fit solves the non-negative least-squares regression over the samples
// and returns the calibrated model with its report. Zero- and
// negative-duration samples — clock-resolution artifacts — are counted
// as dropped, not fitted. It needs at least two samples and a positive
// fitted work rate.
func Fit(samples []Sample) (CalibratedModel, FitReport, error) {
	var model CalibratedModel
	var kept []Sample
	for _, s := range samples {
		if s.DurNs > 0 {
			kept = append(kept, s)
		}
	}
	report := FitReport{Samples: len(kept), Dropped: len(samples) - len(kept)}
	if len(kept) < 2 {
		return model, report, fmt.Errorf("calib: %d samples, need at least 2", len(kept))
	}
	// The normal equations over all four columns, once; each support
	// solves its own principal submatrix.
	var ata [4][4]float64
	var aty [4]float64
	for _, s := range kept {
		x := row(s)
		for i := range x {
			for j := range x {
				ata[i][j] += x[i] * x[j]
			}
			aty[i] += x[i] * float64(s.DurNs)
		}
	}
	// A vol or msgs column with no variation across the samples is
	// collinear with the constant, so it stays out and its effect lands
	// in Gamma.
	flat := 0
	for col := 1; col <= 2; col++ {
		if !slices.ContainsFunc(kept, func(s Sample) bool { return row(s)[col] != row(kept[0])[col] }) {
			flat |= 1 << (col - 1)
		}
	}
	// Every support that keeps work — bit k of mask adds column k+1 — in
	// mask order: the lowest residual among the fits with no negative
	// coefficient and a positive work rate wins, ties to the first.
	var coef [4]float64
	var best []int
	bestSSR := math.Inf(1)
	for mask := 0; mask < 8; mask++ {
		if mask&flat != 0 {
			continue
		}
		support := []int{0}
		for k := range 3 {
			if mask&(1<<k) != 0 {
				support = append(support, k+1)
			}
		}
		c, ok := solve(&ata, &aty, support)
		if !ok && mask == 0 {
			return model, report, fmt.Errorf("calib: degenerate samples (no work variation)")
		}
		if !ok || !(c[0] > 0) || slices.ContainsFunc(c[1:], func(v float64) bool { return v < 0 }) {
			continue
		}
		if ssr := sumSquares(kept, c); ssr < bestSSR {
			coef, best, bestSSR = c, support, ssr
		}
	}
	if best == nil {
		return model, report, fmt.Errorf("calib: no non-negative fit with a positive work rate")
	}
	model = CalibratedModel{NsPerWork: coef[0],
		Comm: exec.CommModel{Alpha: coef[1] / coef[0], Beta: coef[2] / coef[0], Gamma: coef[3] / coef[0]}}
	for _, col := range best {
		report.Terms = append(report.Terms, termNames[col])
	}
	residuals(kept, model, &report)
	return model, report, nil
}

// row is a sample's design row: work, vol, msgs, const.
func row(s Sample) [4]float64 {
	return [4]float64{float64(s.Work), float64(s.Vol), float64(s.Msgs), 1}
}

// sumSquares is the residual sum of squares of coefficients c.
func sumSquares(samples []Sample, c [4]float64) float64 {
	var ssr float64
	for _, s := range samples {
		x := row(s)
		r := float64(s.DurNs) - (c[0]*x[0] + c[1]*x[1] + c[2]*x[2] + c[3]*x[3])
		ssr += r * r
	}
	return ssr
}

// solve fits the least-squares coefficients over the support's design
// columns by solving its principal submatrix of the normal equations with
// Gaussian elimination and partial pivoting; columns off the support
// stay zero. ok is false when the system is singular.
func solve(fullATA *[4][4]float64, fullATY *[4]float64, support []int) (coef [4]float64, ok bool) {
	n := len(support)
	var ata [4][4]float64
	var atb [4]float64
	for i, ci := range support {
		for j, cj := range support {
			ata[i][j] = fullATA[ci][cj]
		}
		atb[i] = fullATY[ci]
	}
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(ata[r][col]) > math.Abs(ata[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(ata[pivot][col]) < 1e-12 {
			return coef, false
		}
		ata[col], ata[pivot] = ata[pivot], ata[col]
		atb[col], atb[pivot] = atb[pivot], atb[col]
		for r := col + 1; r < n; r++ {
			m := ata[r][col] / ata[col][col]
			for c := col; c < n; c++ {
				ata[r][c] -= m * ata[col][c]
			}
			atb[r] -= m * atb[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		v := atb[r]
		for c := r + 1; c < n; c++ {
			v -= ata[r][c] * coef[support[c]]
		}
		coef[support[r]] = v / ata[r][r]
		if math.IsNaN(coef[support[r]]) || math.IsInf(coef[support[r]], 0) {
			return coef, false
		}
	}
	return coef, true
}

// residuals fills the report's R², percentiles and histogram from the
// final model's per-sample predictions.
func residuals(samples []Sample, m CalibratedModel, report *FitReport) {
	abs := make([]int64, 0, len(samples))
	var mean, ssr, sst float64
	for _, s := range samples {
		mean += float64(s.DurNs)
	}
	mean /= float64(len(samples))
	for _, s := range samples {
		r := float64(s.DurNs) - m.PredictTaskNs(s.Work, s.Vol, s.Msgs)
		ssr += r * r
		d := float64(s.DurNs) - mean
		sst += d * d
		a := int64(math.Round(math.Abs(r)))
		abs = append(abs, a)
		report.Residuals.Add(a)
	}
	if sst > 0 {
		report.R2 = 1 - ssr/sst
	}
	slices.Sort(abs)
	pct := func(q float64) int64 { return abs[int(q*float64(len(abs)-1))] }
	report.ResidualP50, report.ResidualP90, report.ResidualP99 = pct(0.50), pct(0.90), pct(0.99)
}

// Calibrate is the one-shot entry point: it fits the model to a single
// measured run. events are exec.Program.Measure's per-task real
// TaskEvents, tasks the executed graph, tc the per-task fetch attribution
// (nil charges no communication). Pool several runs' Samples into one
// Fit when fitting across processor counts or mappers.
func Calibrate(events []exec.TaskEvent, tasks []exec.Task, tc *traffic.TaskComm) (CalibratedModel, FitReport, error) {
	samples, err := Samples(events, tasks, tc)
	if err != nil {
		return CalibratedModel{}, FitReport{}, err
	}
	return Fit(samples)
}
