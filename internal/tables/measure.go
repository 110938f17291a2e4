package tables

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/strategy"
)

// MeasureRow is one cell of the measured-vs-predicted study (Ext-W, and
// the measure series of cmd/sweep): one 2D strategy on one problem and
// processor count, executed for real by the parallel factorization engine
// (repeat-and-min wall clock, bit-identity verified against the serial
// factor on every run) next to the comm-aware static makespan prediction
// over the same task graph.
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
	// Profile summarizes the real per-task executions of the fastest run;
	// events are those executions, which a Calibration fit consumes.
	Profile obs.ProfileSummary
	events  []exec.TaskEvent
}

// MeasureProcs is the processor sweep of the Ext-W study: serial parity at
// P=1 plus the Tile2D points where the prediction actually disagrees with
// the wall clock.
var MeasureProcs = []int{1, 4, 16, 64}

// Measured is the one measurement pass: it runs the labelled 2D strategies
// (all of Labels2D when labels is empty) through the real parallel engine
// across the processor sweep, pairing each measured wall-clock speedup
// with the comm-aware static prediction under cm (Ext-W). Calibration
// fits its model to these same executions. repeats <= 0 selects the
// engine default.
func Measured(p *Problem, procs []int, labels []string, cm exec.CommModel, repeats int) ([]MeasureRow, error) {
	if len(labels) == 0 {
		labels = Labels2D()
	}
	return study([]*Problem{p}, procs, labels, strategy.Options{}, func(c Cell) (MeasureRow, error) {
		mes, err := c.Plan.Measure(p.A, exec.MeasureOptions{Repeats: repeats})
		if err != nil {
			return MeasureRow{}, fmt.Errorf("tables: measuring %s on %s P=%d: %w", c.Strategy, c.Name, c.P, err)
		}
		prof, err := obs.RealProfile(mes.Events, c.P)
		if err != nil {
			return MeasureRow{}, fmt.Errorf("tables: profiling %s on %s P=%d: %w", c.Strategy, c.Name, c.P, err)
		}
		pred := c.Plan.MakespanComm(cm).Makespan
		return MeasureRow{
			Cell: c, Repeats: mes.Repeats,
			SerialNs: mes.SerialNs, ParallelNs: mes.ParallelNs, Speedup: mes.Speedup,
			PredSpeedup:  float64(p.Total) / float64(max(pred, 1)),
			PredMakespan: pred,
			Traffic:      c.Plan.TrafficTotal(),
			Profile:      prof.Summary(),
			events:       mes.Events,
		}, nil
	})
}

// FormatMeasured renders the measured-vs-predicted study.
func FormatMeasured(name string, cm exec.CommModel, rows []MeasureRow) string {
	return text(fmt.Sprintf("Ext-W: measured vs predicted (real engine, repeat-and-min, bit-identity verified), %s, alpha=%g, beta=%g\n",
		name, cm.Alpha, cm.Beta),
		"Appl\tP\tStrategy\tSerial ns\tParallel ns\tSpeedup\tPred speedup\tPred span\tTraffic", rows,
		func(r MeasureRow) string {
			return fmt.Sprintf("%s\t%d\t%s\t%d\t%d\t%.2f\t%.2f\t%d\t%d",
				r.Name, r.P, r.Strategy, r.SerialNs, r.ParallelNs, r.Speedup, r.PredSpeedup, r.PredMakespan,
				r.Traffic)
		})
}

// MeasureCSV renders the measure series of cmd/sweep. CSV only: repeated
// timings live outside the deterministic -ledger/-trace machinery.
func MeasureCSV(rows []MeasureRow) string {
	return csv("strategy,procs,serial_ns,parallel_ns,speedup,predicted_speedup,predicted_makespan,traffic2d", rows,
		func(r MeasureRow) string {
			return fmt.Sprintf("%s,%d,%d,%d,%.4f,%.4f,%d,%d",
				r.Strategy, r.P, r.SerialNs, r.ParallelNs, r.Speedup, r.PredSpeedup, r.PredMakespan, r.Traffic)
		})
}
