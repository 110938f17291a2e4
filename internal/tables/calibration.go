package tables

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/calib"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// CalibrationRow is one cell of the calibration study (Ext-Cal): one 2D
// strategy on one problem and processor count, with the measured wall
// clock next to two predictions of it — the uncalibrated work-unit model
// under the caller's CommModel (scaled by the measured serial rate, the
// convention of the Ext-W speedup column) and the calibrated model fitted
// to the study's own measured task durations.
type CalibrationRow struct {
	Name     string
	P        int
	Strategy string
	Repeats  int
	// SerialNs and ParallelNs are the fastest measured serial and parallel
	// runs; Speedup their ratio.
	SerialNs, ParallelNs int64
	Speedup              float64
	// UncalSpan/CalSpan are the comm-aware static makespans in work units
	// under the caller's model and the fitted model; UncalNs/CalNs their
	// wall-clock conversions (serial-rate scaling and NsPerWork).
	UncalSpan, CalSpan int64
	UncalNs, CalNs     int64
	// UncalSpeedup and CalSpeedup are the two predicted speedups the MAPE
	// columns score against the measured Speedup.
	UncalSpeedup, CalSpeedup float64
	// Traffic is the deduplicated 2D fetch total; Degenerate the run's
	// zero-duration measured events (clock resolution).
	Traffic    int64
	Degenerate int
}

// CalibrationStudy is the complete Ext-Cal result: the rows, the fitted
// model with its report, and the speedup MAPE of both predictors over
// the rows (what the acceptance gate compares).
type CalibrationStudy struct {
	Rows   []CalibrationRow
	Model  calib.CalibratedModel
	Report calib.FitReport
	// MAPEUncal and MAPECal are mean absolute percentage errors of the
	// uncalibrated and calibrated predicted speedups against the measured
	// ones, over all rows.
	MAPEUncal, MAPECal float64
}

// Calibration runs the Ext-Cal study: every native 2D tile mapper and
// every col2d lift is executed for real across the processor sweep (the
// same repeat-and-min, bit-identity-verified harness as Ext-W), all
// measured task durations feed one least-squares fit of {Alpha, Beta,
// Gamma} plus the nanosecond scale, and each row is then re-predicted
// under the fitted model. repeats <= 0 selects the engine default.
func Calibration(p *Problem, procs []int, cm exec.CommModel, repeats int) (*CalibrationStudy, error) {
	// Pass 1: measure every (strategy, P) point and accumulate the fit
	// samples; the plans are kept for the post-fit prediction pass.
	type run struct {
		label string
		pl    *pipeline.Plan
		mes   *exec.Measurement
		deg   int
	}
	fitter := calib.NewFitter()
	var runs []run
	for _, np := range procs {
		for _, e := range tile2DEntries() {
			pl, err := p.plan2D(e, np)
			if err != nil {
				return nil, err
			}
			mes, err := pl.Measure(p.A, exec.MeasureOptions{Repeats: repeats})
			if err != nil {
				return nil, fmt.Errorf("tables: measuring %s on %s P=%d: %w",
					e.label, p.Meta.Name, np, err)
			}
			if err := fitter.Add(mes.Events, pl.Tasks, pl.Fetch); err != nil {
				return nil, fmt.Errorf("tables: fitting %s on %s P=%d: %w",
					e.label, p.Meta.Name, np, err)
			}
			prof, err := obs.RealProfile(mes.Events, np)
			if err != nil {
				return nil, fmt.Errorf("tables: profiling %s on %s P=%d: %w",
					e.label, p.Meta.Name, np, err)
			}
			runs = append(runs, run{label: e.label, pl: pl, mes: mes, deg: prof.Degenerate})
		}
	}
	model, report, err := fitter.Fit(calib.Options{})
	if err != nil {
		return nil, fmt.Errorf("tables: calibration fit on %s: %w", p.Meta.Name, err)
	}
	// Pass 2: re-simulate every point under both models and score the two
	// speedup predictions against the measured wall clock.
	study := &CalibrationStudy{Model: model, Report: report}
	var sumUncal, sumCal float64
	for _, r := range runs {
		uncal := r.pl.MakespanComm(cm).Makespan
		cal := r.pl.MakespanComm(model.Comm).Makespan
		uncalSpeedup := float64(p.Total) / float64(max64(uncal, 1))
		calNs := model.SpanNs(cal)
		calSpeedup := float64(r.mes.SerialNs) / math.Max(calNs, 1)
		row := CalibrationRow{
			Name: p.Meta.Name, P: r.pl.P, Strategy: r.label,
			Repeats:      r.mes.Repeats,
			SerialNs:     r.mes.SerialNs,
			ParallelNs:   r.mes.ParallelNs,
			Speedup:      r.mes.Speedup,
			UncalSpan:    uncal,
			CalSpan:      cal,
			UncalNs:      int64(float64(r.mes.SerialNs) * float64(uncal) / float64(max64(p.Total, 1))),
			CalNs:        int64(calNs),
			UncalSpeedup: uncalSpeedup,
			CalSpeedup:   calSpeedup,
			Traffic:      r.pl.TrafficTotal(),
			Degenerate:   r.deg,
		}
		study.Rows = append(study.Rows, row)
		sumUncal += ape(uncalSpeedup, row.Speedup)
		sumCal += ape(calSpeedup, row.Speedup)
	}
	n := float64(len(study.Rows))
	study.MAPEUncal = sumUncal / n
	study.MAPECal = sumCal / n
	return study, nil
}

// ape is the absolute percentage error of a prediction against a
// measured value (percent).
func ape(pred, measured float64) float64 {
	if measured == 0 {
		return 0
	}
	return 100 * math.Abs(pred-measured) / measured
}

// FormatCalibration renders the Ext-Cal study: the fitted model line,
// one row per (strategy, P) with both predictions and their errors, and
// the MAPE footer the acceptance gate reads.
func FormatCalibration(name string, cm exec.CommModel, st *CalibrationStudy) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ext-Cal: cost-model calibration (fit to measured task durations), %s, uncalibrated alpha=%g beta=%g\n",
		name, cm.Alpha, cm.Beta)
	fmt.Fprintf(&sb, "fit: alpha=%.4g beta=%.4g gamma=%.4g ns/work=%.4g R2=%.4f samples=%d dropped=%d terms=[%s]\n",
		st.Model.Comm.Alpha, st.Model.Comm.Beta, st.Model.Comm.Gamma,
		st.Model.NsPerWork, st.Report.R2, st.Report.Samples, st.Report.Dropped,
		strings.Join(st.Report.Terms, " "))
	fmt.Fprintf(&sb, "residual ns: p50=%d p90=%d p99=%d\n",
		st.Report.ResidualP50, st.Report.ResidualP90, st.Report.ResidualP99)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Appl\tP\tStrategy\tMeasured ns\tUncal ns\tCal ns\tSpeedup\tUncal pred\tCal pred\tDegenerate")
	for _, r := range st.Rows {
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\t%d\n",
			r.Name, r.P, r.Strategy, r.ParallelNs, r.UncalNs, r.CalNs,
			r.Speedup, r.UncalSpeedup, r.CalSpeedup, r.Degenerate)
	}
	w.Flush()
	fmt.Fprintf(&sb, "speedup MAPE: uncalibrated %.1f%%, calibrated %.1f%%\n", st.MAPEUncal, st.MAPECal)
	return sb.String()
}

// CalibrationRecords converts a study into bench-ledger records (Kind
// "calibrate"): Alpha/Beta/Makespan describe the fitted model and its
// calibrated span, the measured fields mirror the measure rows, and the
// calib block carries Gamma, the scale, the diagnostics and the MAPE
// columns (identical on every record of one study).
func CalibrationRecords(st *CalibrationStudy) []obs.BenchRecord {
	if st == nil {
		return nil
	}
	recs := make([]obs.BenchRecord, 0, len(st.Rows))
	for _, r := range st.Rows {
		recs = append(recs, obs.BenchRecord{
			Matrix: r.Name, Strategy: r.Strategy, Kind: "calibrate",
			P: r.P, Alpha: st.Model.Comm.Alpha, Beta: st.Model.Comm.Beta,
			Makespan:   r.CalSpan,
			Traffic:    r.Traffic,
			Efficiency: r.Speedup / float64(r.P),

			SerialNs:        r.SerialNs,
			MeasuredNs:      r.ParallelNs,
			MeasuredSpeedup: r.Speedup,
			PredSpeedup:     r.CalSpeedup,
			Calib: &obs.CalibSummary{
				Gamma:     st.Model.Comm.Gamma,
				NsPerWork: st.Model.NsPerWork,
				R2:        st.Report.R2,
				Samples:   st.Report.Samples,
				Dropped:   st.Report.Dropped,
				CalibNs:   r.CalNs,
				MAPEUncal: st.MAPEUncal,
				MAPECal:   st.MAPECal,
			},
		})
	}
	return recs
}
