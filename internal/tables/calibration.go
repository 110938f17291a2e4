package tables

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/calib"
	"repro/internal/exec"
)

// CalibrationRow is one cell of the calibration study (Ext-Cal, and the
// calibrate series of cmd/sweep): a measured cell — whose PredMakespan and
// PredSpeedup are the uncalibrated work-unit prediction under the
// caller's CommModel — next to the prediction of the calibrated model
// fitted to the study's own measured task durations.
type CalibrationRow struct {
	MeasureRow
	// CalSpan is the comm-aware static makespan in work units under the
	// fitted model; UncalNs/CalNs the wall-clock conversions of both spans
	// (serial-rate scaling, the convention of the Ext-W speedup column,
	// and the fitted NsPerWork).
	CalSpan        int64
	UncalNs, CalNs int64
	// CalSpeedup is the calibrated predicted speedup the MAPE column
	// scores, next to PredSpeedup, against the measured Speedup.
	CalSpeedup float64
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

// Calibration runs the Ext-Cal study over the executions of one Measured
// pass: all measured task durations feed one least-squares fit of {Alpha,
// Beta, Gamma} plus the nanosecond scale, and each row is then
// re-predicted under the fitted model and scored, with the uncalibrated
// prediction, against the measured wall clock.
func Calibration(measured []MeasureRow) (*CalibrationStudy, error) {
	fitter := calib.NewFitter()
	for _, r := range measured {
		if err := fitter.Add(r.events, r.Plan.Tasks, r.Plan.Fetch); err != nil {
			return nil, fmt.Errorf("tables: fitting %s on %s P=%d: %w", r.Strategy, r.Name, r.P, err)
		}
	}
	model, report, err := fitter.Fit(calib.Options{})
	if err != nil {
		return nil, fmt.Errorf("tables: calibration fit: %w", err)
	}
	study := &CalibrationStudy{Model: model, Report: report}
	for _, r := range measured {
		cal := r.Plan.MakespanComm(model.Comm).Makespan
		calNs := model.SpanNs(cal)
		row := CalibrationRow{
			MeasureRow: r,
			CalSpan:    cal,
			UncalNs:    int64(float64(r.SerialNs) * float64(r.PredMakespan) / float64(max(r.Plan.An.Total, 1))),
			CalNs:      int64(calNs),
			CalSpeedup: float64(r.SerialNs) / math.Max(calNs, 1),
		}
		study.Rows = append(study.Rows, row)
		study.MAPEUncal += row.UncalAPE()
		study.MAPECal += row.CalAPE()
	}
	study.MAPEUncal /= float64(len(measured))
	study.MAPECal /= float64(len(measured))
	return study, nil
}

// UncalAPE and CalAPE are the absolute percentage errors of the two
// predicted speedups against the measured one (percent).
func (r CalibrationRow) UncalAPE() float64 { return ape(r.PredSpeedup, r.Speedup) }
func (r CalibrationRow) CalAPE() float64   { return ape(r.CalSpeedup, r.Speedup) }

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
	title := fmt.Sprintf("Ext-Cal: cost-model calibration (fit to measured task durations), %s, uncalibrated alpha=%g beta=%g\n",
		name, cm.Alpha, cm.Beta) +
		fmt.Sprintf("fit: alpha=%.4g beta=%.4g gamma=%.4g ns/work=%.4g R2=%.4f samples=%d dropped=%d terms=[%s]\n",
			st.Model.Comm.Alpha, st.Model.Comm.Beta, st.Model.Comm.Gamma,
			st.Model.NsPerWork, st.Report.R2, st.Report.Samples, st.Report.Dropped,
			strings.Join(st.Report.Terms, " ")) +
		fmt.Sprintf("residual ns: p50=%d p90=%d p99=%d\n",
			st.Report.ResidualP50, st.Report.ResidualP90, st.Report.ResidualP99)
	return text(title,
		"Appl\tP\tStrategy\tMeasured ns\tUncal ns\tCal ns\tSpeedup\tUncal pred\tCal pred\tDegenerate", st.Rows,
		func(r CalibrationRow) string {
			return fmt.Sprintf("%s\t%d\t%s\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\t%d", r.Name, r.P, r.Strategy, r.ParallelNs, r.UncalNs, r.CalNs,
				r.Speedup, r.PredSpeedup, r.CalSpeedup, r.Profile.Degenerate)
		}) + fmt.Sprintf("speedup MAPE: uncalibrated %.1f%%, calibrated %.1f%%\n", st.MAPEUncal, st.MAPECal)
}

// CalibrateCSV renders the calibrate series of cmd/sweep: every row
// repeats the study's one fitted model next to its own two predictions.
func CalibrateCSV(st *CalibrationStudy) string {
	m := st.Model
	return csv("strategy,procs,serial_ns,parallel_ns,measured_speedup,uncal_speedup,cal_speedup,uncal_ape,cal_ape,alpha,beta,gamma,ns_per_work,r2", st.Rows,
		func(r CalibrationRow) string {
			return fmt.Sprintf("%s,%d,%d,%d,%.4f,%.4f,%.4f,%.2f,%.2f,%.6g,%.6g,%.6g,%.6g,%.4f", r.Strategy, r.P, r.SerialNs, r.ParallelNs,
				r.Speedup, r.PredSpeedup, r.CalSpeedup, r.UncalAPE(), r.CalAPE(),
				m.Comm.Alpha, m.Comm.Beta, m.Comm.Gamma, m.NsPerWork, st.Report.R2)
		})
}
