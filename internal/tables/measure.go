package tables

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/calib"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/strategy"
)

// MeasureRow is one cell of the measured-vs-predicted study (Ext-W, and
// the measure series of cmd/sweep): one 2D strategy on one problem and
// processor count, executed for real by the parallel factorization engine
// (repeat-and-min wall clock, bit-identity verified against the serial
// factor on every run) next to the comm-aware static makespan prediction
// over the same task graph, uncalibrated and under the study's fitted
// cost model.
type MeasureRow struct {
	Cell
	Repeats int
	// SerialNs and ParallelNs are the fastest serial and parallel runs.
	SerialNs, ParallelNs int64
	// Speedup is the measured SerialNs / ParallelNs; PredSpeedup is
	// TotalWork / PredMakespan from the static comm-aware simulation of the
	// identical task graph (the engine executes each worker's tasks in ID
	// order, which is the static simulator's discipline).
	Speedup, PredSpeedup float64
	// PredMakespan is the comm-aware static makespan; Traffic the
	// deduplicated 2D fetch total.
	PredMakespan, Traffic int64
	// CalSpan is the comm-aware static makespan in work units under the
	// fitted model; UncalNs/CalNs the wall-clock conversions of both spans
	// (serial-rate scaling, the convention of the Speedup column, and the
	// fitted NsPerWork).
	CalSpan        int64
	UncalNs, CalNs int64
	// CalSpeedup is the calibrated predicted speedup the MAPE column
	// scores, next to PredSpeedup, against the measured Speedup.
	CalSpeedup float64
	// Profile summarizes the real per-task executions of the fastest run.
	Profile obs.ProfileSummary
}

// MeasureStudy is the complete Ext-W result: the rows, the cost model
// fitted to all of their measured task durations with its report, and
// the speedup MAPE of both predictors over the rows.
type MeasureStudy struct {
	Rows   []MeasureRow
	Model  calib.CalibratedModel
	Report calib.FitReport
	// MAPEUncal and MAPECal are mean absolute percentage errors of the
	// uncalibrated and calibrated predicted speedups against the measured
	// ones, over all rows.
	MAPEUncal, MAPECal float64
}

// MeasureProcs is the processor sweep of the Ext-W study: serial parity at
// P=1 plus the Tile2D points where the prediction actually disagrees with
// the wall clock.
var MeasureProcs = []int{1, 4, 16, 64}

// Measured is the one measurement study (Ext-W): it runs the labelled 2D
// strategies (all of Labels2D when labels is empty) through the real
// parallel engine across the processor sweep, pairing each measured
// wall-clock speedup with the comm-aware static prediction under cm. All
// the measured task durations then feed one non-negative least-squares
// fit of {Alpha, Beta, Gamma} plus the nanosecond scale, and each row is
// re-predicted under the fitted model and scored, with the uncalibrated
// prediction, against the wall clock. repeats <= 0 selects the engine
// default.
func Measured(p *Problem, procs []int, labels []string, cm exec.CommModel, repeats int) (*MeasureStudy, error) {
	if len(labels) == 0 {
		labels = Labels2D()
	}
	var samples []calib.Sample
	rows, err := study([]*Problem{p}, procs, labels, strategy.Options{}, func(c Cell) (MeasureRow, error) {
		mes, err := c.Plan.Measure(p.A, exec.MeasureOptions{Repeats: repeats})
		if err != nil {
			return MeasureRow{}, fmt.Errorf("tables: measuring %s on %s P=%d: %w", c.Strategy, c.Name, c.P, err)
		}
		prof, err := obs.RealProfile(mes.Events, c.P)
		if err != nil {
			return MeasureRow{}, fmt.Errorf("tables: profiling %s on %s P=%d: %w", c.Strategy, c.Name, c.P, err)
		}
		s, err := calib.Samples(mes.Events, c.Plan.Tasks, c.Plan.Fetch)
		if err != nil {
			return MeasureRow{}, fmt.Errorf("tables: fitting %s on %s P=%d: %w", c.Strategy, c.Name, c.P, err)
		}
		samples = append(samples, s...)
		pred := c.Plan.MakespanComm(cm).Makespan
		return MeasureRow{
			Cell: c, Repeats: mes.Repeats,
			SerialNs: mes.SerialNs, ParallelNs: mes.ParallelNs, Speedup: mes.Speedup,
			PredSpeedup:  float64(p.Total) / float64(max(pred, 1)),
			PredMakespan: pred,
			Traffic:      c.Plan.TrafficTotal(),
			UncalNs:      int64(float64(mes.SerialNs) * float64(pred) / float64(max(p.Total, 1))),
			Profile:      prof.Summary(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	model, report, err := calib.Fit(samples)
	if err != nil {
		return nil, fmt.Errorf("tables: calibration fit: %w", err)
	}
	st := &MeasureStudy{Rows: rows, Model: model, Report: report}
	for i := range st.Rows {
		r := &st.Rows[i]
		r.CalSpan = r.Plan.MakespanComm(model.Comm).Makespan
		calNs := model.SpanNs(r.CalSpan)
		r.CalNs = int64(calNs)
		r.CalSpeedup = float64(r.SerialNs) / math.Max(calNs, 1)
		st.MAPEUncal += r.uncalAPE()
		st.MAPECal += r.calAPE()
	}
	st.MAPEUncal /= float64(len(rows))
	st.MAPECal /= float64(len(rows))
	return st, nil
}

// uncalAPE and calAPE are the absolute percentage errors of the two
// predicted speedups against the measured one (percent).
func (r MeasureRow) uncalAPE() float64 { return ape(r.PredSpeedup, r.Speedup) }
func (r MeasureRow) calAPE() float64   { return ape(r.CalSpeedup, r.Speedup) }

func ape(pred, measured float64) float64 {
	if measured == 0 {
		return 0
	}
	return 100 * math.Abs(pred-measured) / measured
}

// FormatMeasured renders the measured-vs-predicted study: the fitted
// model line, one row per (P, strategy) with the measured wall clock and
// both predictions, and the MAPE footer.
func FormatMeasured(name string, cm exec.CommModel, st *MeasureStudy) string {
	m, rep := st.Model, st.Report
	title := fmt.Sprintf("Ext-W: measured vs predicted (real engine, repeat-and-min, bit-identity verified), %s, alpha=%g, beta=%g\n",
		name, cm.Alpha, cm.Beta) +
		fmt.Sprintf("fit: alpha=%.4g beta=%.4g gamma=%.4g ns/work=%.4g R2=%.4f samples=%d dropped=%d terms=[%s]\n",
			m.Comm.Alpha, m.Comm.Beta, m.Comm.Gamma, m.NsPerWork, rep.R2, rep.Samples, rep.Dropped,
			strings.Join(rep.Terms, " ")) +
		fmt.Sprintf("residual ns: p50=%d p90=%d p99=%d\n", rep.ResidualP50, rep.ResidualP90, rep.ResidualP99)
	return text(title,
		"Appl\tP\tStrategy\tSerial ns\tParallel ns\tSpeedup\tPred speedup\tPred span\tTraffic\tUncal ns\tCal ns\tCal pred\tDegenerate", st.Rows,
		func(r MeasureRow) string {
			return fmt.Sprintf("%s\t%d\t%s\t%d\t%d\t%.2f\t%.2f\t%d\t%d\t%d\t%d\t%.2f\t%d",
				r.Name, r.P, r.Strategy, r.SerialNs, r.ParallelNs, r.Speedup, r.PredSpeedup, r.PredMakespan,
				r.Traffic, r.UncalNs, r.CalNs, r.CalSpeedup, r.Profile.Degenerate)
		}) + fmt.Sprintf("speedup MAPE: uncalibrated %.1f%%, calibrated %.1f%%\n", st.MAPEUncal, st.MAPECal)
}

// MeasureCSV renders the measure series of cmd/sweep label-major (each
// label's processor sweep together, like the other label-axis series),
// every row repeating the study's one fitted model next to its own two
// predictions. CSV only: repeated timings live outside the deterministic
// -ledger/-trace machinery.
func MeasureCSV(st *MeasureStudy) string {
	// The study runs P-major, every P group the same labels in the same
	// order: transpose the groups.
	labels := 0
	for labels < len(st.Rows) && st.Rows[labels].P == st.Rows[0].P {
		labels++
	}
	var rows []MeasureRow
	for l := range labels {
		for i := l; i < len(st.Rows); i += labels {
			rows = append(rows, st.Rows[i])
		}
	}
	m := st.Model
	return csv("strategy,procs,serial_ns,parallel_ns,speedup,predicted_speedup,predicted_makespan,traffic2d,"+
		"cal_speedup,uncal_ape,cal_ape,alpha,beta,gamma,ns_per_work,r2", rows,
		func(r MeasureRow) string {
			return fmt.Sprintf("%s,%d,%d,%d,%.4f,%.4f,%d,%d,%.4f,%.2f,%.2f,%.6g,%.6g,%.6g,%.6g,%.4f",
				r.Strategy, r.P, r.SerialNs, r.ParallelNs, r.Speedup, r.PredSpeedup, r.PredMakespan, r.Traffic,
				r.CalSpeedup, r.uncalAPE(), r.calAPE(), m.Comm.Alpha, m.Comm.Beta, m.Comm.Gamma, m.NsPerWork, st.Report.R2)
		})
}
