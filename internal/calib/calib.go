// Package calib fits the communication-time model of the makespan
// simulators (exec.CommModel, including the per-task fixed-overhead term
// Gamma) to the measured per-task durations the real parallel engine
// emits (exec.Program.Measure's TaskEvents). The fit is an ordinary
// least-squares regression of each task's wall-clock nanoseconds on its
// compute work, fetch volume, message count and a constant:
//
//	dur_ns ≈ s·work + a·vol + b·msgs + g
//
// The work coefficient s is the machine's serial rate in nanoseconds per
// work unit; dividing the other coefficients by it converts them into the
// simulators' work units, giving CalibratedModel{Comm: {Alpha: a/s,
// Beta: b/s, Gamma: g/s}, NsPerWork: s}. Coefficients the data drives
// negative are clamped by refitting without the offending regressor (the
// simulators require non-negative charges). Everything is deterministic
// given the samples: same events in, same model out.
package calib

import (
	"fmt"
	"math"
	"sort"

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
	// Terms lists the regressors the final fit kept, in design order out
	// of "work", "vol", "msgs", "const"; a term is dropped when the data
	// drives its coefficient negative.
	Terms []string
	// R2 is the coefficient of determination of the final fit.
	R2 float64
	// ResidualP50/P90/P99 are percentiles of |measured - predicted| in ns.
	ResidualP50, ResidualP90, ResidualP99 int64
	// Residuals is the power-of-two histogram of absolute residuals (ns),
	// the same bucket idiom as obs.Profile's idle-gap histogram.
	Residuals obs.Histogram
}

// Fitter accumulates samples across any number of measured runs — fitting
// several processor counts and mappers at once is what identifies Alpha
// and Beta separately from Gamma.
type Fitter struct {
	samples []Sample
	dropped int
}

// NewFitter returns an empty Fitter.
func NewFitter() *Fitter { return &Fitter{} }

// Add ingests one measured run: events are exec.Program.Measure's real
// TaskEvents, tasks the graph they executed, and tc the per-task fetch
// attribution (nil charges no communication). Zero- and negative-duration
// events — clock-resolution artifacts — are counted as dropped, not
// fitted.
func (f *Fitter) Add(events []exec.TaskEvent, tasks []exec.Task, tc *traffic.TaskComm) error {
	for _, ev := range events {
		if ev.Task < 0 || int(ev.Task) >= len(tasks) {
			return fmt.Errorf("calib: event for task %d, graph has %d tasks", ev.Task, len(tasks))
		}
		if tc != nil && (len(tc.Vol) != len(tasks) || len(tc.Msgs) != len(tasks)) {
			return fmt.Errorf("calib: fetch stats cover %d tasks, graph has %d", len(tc.Vol), len(tasks))
		}
		dur := ev.Finish - ev.Start
		if dur <= 0 {
			f.dropped++
			continue
		}
		s := Sample{DurNs: dur, Work: tasks[ev.Task].Work}
		if tc != nil {
			s.Vol = tc.Vol[ev.Task]
			s.Msgs = tc.Msgs[ev.Task]
		}
		f.AddSample(s)
	}
	return nil
}

// AddSample ingests one pre-extracted sample; non-positive durations are
// counted as dropped.
func (f *Fitter) AddSample(s Sample) {
	if s.DurNs <= 0 {
		f.dropped++
		return
	}
	f.samples = append(f.samples, s)
}

// Len reports the number of accumulated (fit-eligible) samples.
func (f *Fitter) Len() int { return len(f.samples) }

// Dropped reports the accumulated zero-/negative-duration event count.
func (f *Fitter) Dropped() int { return f.dropped }

// termNames indexes the design columns of the regression.
var termNames = [4]string{"work", "vol", "msgs", "const"}

// Fit solves the least-squares regression over the accumulated samples
// and returns the calibrated model with its report. It needs at least two
// samples and a positive fitted work rate; regressors driven negative are
// dropped and the remainder refitted.
func (f *Fitter) Fit() (CalibratedModel, FitReport, error) {
	var model CalibratedModel
	report := FitReport{Samples: len(f.samples), Dropped: f.dropped}
	if len(f.samples) < 2 {
		return model, report, fmt.Errorf("calib: %d samples, need at least 2", len(f.samples))
	}
	// Active design columns: work, vol, msgs, const. Work must survive —
	// it anchors the ns-per-work-unit scale. Vol and msgs columns with no
	// variation across the samples are excluded up front (they are
	// collinear with the constant; their effect lands in Gamma), and the
	// rest are dropped one at a time (most negative first) until all
	// remaining coefficients are non-negative, the standard active-set
	// clamp for tiny NNLS systems.
	active := []int{0}
	if f.varies(func(s Sample) int64 { return s.Vol }) {
		active = append(active, 1)
	}
	if f.varies(func(s Sample) int64 { return s.Msgs }) {
		active = append(active, 2)
	}
	active = append(active, 3)
	var coef [4]float64
	for {
		sol, ok := f.solve(active)
		if !ok {
			// Singular normal equations: a collinear or all-zero column.
			// Drop the last non-work column and retry.
			if len(active) == 1 {
				return model, report, fmt.Errorf("calib: degenerate samples (no work variation)")
			}
			active = active[:len(active)-1]
			continue
		}
		worst, worstIdx := 0.0, -1
		for k, col := range active {
			if col == 0 {
				continue
			}
			if sol[k] < worst {
				worst, worstIdx = sol[k], k
			}
		}
		if worstIdx < 0 {
			for i := range coef {
				coef[i] = 0
			}
			for k, col := range active {
				coef[col] = sol[k]
			}
			break
		}
		active = append(active[:worstIdx], active[worstIdx+1:]...)
	}
	// Tiny or overhead-dominated sample sets can drive the work rate
	// itself negative (the regressors soak up what little work signal
	// there is). Shed the remaining non-work columns one at a time — the
	// work-only fit sum(w*d)/sum(w^2) is positive whenever any work is —
	// before giving up.
	for !(coef[0] > 0) && len(active) > 1 {
		active = active[:len(active)-1]
		sol, ok := f.solve(active)
		if !ok {
			continue
		}
		clamped := false
		for k, col := range active {
			if col != 0 && sol[k] < 0 {
				clamped = true
			}
		}
		if clamped {
			continue
		}
		for i := range coef {
			coef[i] = 0
		}
		for k, col := range active {
			coef[col] = sol[k]
		}
	}
	if !(coef[0] > 0) || math.IsInf(coef[0], 0) {
		return model, report, fmt.Errorf("calib: fitted work rate %g ns/unit not positive", coef[0])
	}
	model = CalibratedModel{
		Comm: exec.CommModel{
			Alpha: coef[1] / coef[0],
			Beta:  coef[2] / coef[0],
			Gamma: coef[3] / coef[0],
		},
		NsPerWork: coef[0],
	}
	for _, col := range activeCols(coef) {
		report.Terms = append(report.Terms, termNames[col])
	}
	f.residuals(model, &report)
	return model, report, nil
}

// varies reports whether a regressor takes more than one value across
// the samples.
func (f *Fitter) varies(get func(Sample) int64) bool {
	for _, s := range f.samples[1:] {
		if get(s) != get(f.samples[0]) {
			return true
		}
	}
	return false
}

// activeCols lists the design columns with nonzero coefficients, always
// including work (column 0).
func activeCols(coef [4]float64) []int {
	out := []int{0}
	for col := 1; col < 4; col++ {
		if coef[col] != 0 {
			out = append(out, col)
		}
	}
	return out
}

// solve fits the least-squares coefficients over the active design
// columns by solving the normal equations with Gaussian elimination and
// partial pivoting. ok is false when the system is singular.
func (f *Fitter) solve(active []int) ([]float64, bool) {
	n := len(active)
	ata := make([][]float64, n)
	atb := make([]float64, n)
	for i := range ata {
		ata[i] = make([]float64, n)
	}
	row := func(s Sample) [4]float64 {
		return [4]float64{float64(s.Work), float64(s.Vol), float64(s.Msgs), 1}
	}
	for _, s := range f.samples {
		x := row(s)
		y := float64(s.DurNs)
		for i, ci := range active {
			for j, cj := range active {
				ata[i][j] += x[ci] * x[cj]
			}
			atb[i] += x[ci] * y
		}
	}
	// Gaussian elimination with partial pivoting on the n x n system.
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(ata[r][col]) > math.Abs(ata[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(ata[pivot][col]) < 1e-12 {
			return nil, false
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
	sol := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		v := atb[r]
		for c := r + 1; c < n; c++ {
			v -= ata[r][c] * sol[c]
		}
		sol[r] = v / ata[r][r]
	}
	for _, v := range sol {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
	}
	return sol, true
}

// residuals fills the report's R², percentiles and histogram from the
// final model's per-sample predictions.
func (f *Fitter) residuals(m CalibratedModel, report *FitReport) {
	abs := make([]int64, 0, len(f.samples))
	var mean, ssr, sst float64
	for _, s := range f.samples {
		mean += float64(s.DurNs)
	}
	mean /= float64(len(f.samples))
	for _, s := range f.samples {
		pred := m.PredictTaskNs(s.Work, s.Vol, s.Msgs)
		r := float64(s.DurNs) - pred
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
	sort.Slice(abs, func(a, b int) bool { return abs[a] < abs[b] })
	pct := func(q float64) int64 {
		idx := int(q * float64(len(abs)-1))
		return abs[idx]
	}
	report.ResidualP50 = pct(0.50)
	report.ResidualP90 = pct(0.90)
	report.ResidualP99 = pct(0.99)
}

// Calibrate is the one-shot entry point: it fits the homogeneous model to
// a single measured run. events are exec.Program.Measure's per-task real
// TaskEvents, tasks the executed graph, tc the per-task fetch attribution
// (nil charges no communication). Accumulate several runs through a
// Fitter when fitting across processor counts or mappers.
func Calibrate(events []exec.TaskEvent, tasks []exec.Task, tc *traffic.TaskComm) (CalibratedModel, FitReport, error) {
	f := NewFitter()
	if err := f.Add(events, tasks, tc); err != nil {
		return CalibratedModel{}, FitReport{}, err
	}
	return f.Fit()
}
