package tables

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/exec"
	"repro/internal/obs"
)

// MeasureRow is one cell of the measured-vs-predicted study (Ext-W): one 2D
// strategy on one problem and processor count, executed for real by the
// parallel factorization engine (repeat-and-min wall clock, bit-identity
// verified against the serial factor on every run) next to the comm-aware
// static makespan prediction over the same task graph.
type MeasureRow struct {
	Name     string
	P        int
	Strategy string
	Repeats  int
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
	// Profile summarizes the real per-task executions of the fastest run.
	Profile obs.ProfileSummary
}

// MeasureProcs is the processor sweep of the Ext-W study: serial parity at
// P=1 plus the Tile2D points where the prediction actually disagrees with
// the wall clock.
var MeasureProcs = []int{1, 4, 16, 64}

// Measured runs every native 2D tile mapper and every col2d lift through
// the real parallel engine across the processor sweep, pairing each
// measured wall-clock speedup with the comm-aware static prediction under
// cm (Ext-W). repeats <= 0 selects the engine default.
func Measured(p *Problem, procs []int, cm exec.CommModel, repeats int) ([]MeasureRow, error) {
	var rows []MeasureRow
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
			pred := pl.MakespanComm(cm)
			prof, err := obs.RealProfile(mes.Events, np)
			if err != nil {
				return nil, fmt.Errorf("tables: profiling %s on %s P=%d: %w",
					e.label, p.Meta.Name, np, err)
			}
			rows = append(rows, MeasureRow{
				Name: p.Meta.Name, P: np, Strategy: e.label,
				Repeats:    mes.Repeats,
				SerialNs:   mes.SerialNs,
				ParallelNs: mes.ParallelNs,
				Speedup:    mes.Speedup,
				PredSpeedup: float64(p.Total) /
					float64(max64(pred.Makespan, 1)),
				PredMakespan: pred.Makespan,
				Traffic:      pl.TrafficTotal(),
				Profile:      prof.Summary(),
			})
		}
	}
	return rows, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// FormatMeasured renders the measured-vs-predicted study.
func FormatMeasured(name string, cm exec.CommModel, rows []MeasureRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ext-W: measured vs predicted (real engine, repeat-and-min, bit-identity verified), %s, alpha=%g, beta=%g\n",
		name, cm.Alpha, cm.Beta)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Appl\tP\tStrategy\tSerial ns\tParallel ns\tSpeedup\tPred speedup\tPred span\tTraffic")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%.2f\t%.2f\t%d\t%d\n",
			r.Name, r.P, r.Strategy, r.SerialNs, r.ParallelNs, r.Speedup, r.PredSpeedup, r.PredMakespan, r.Traffic)
	}
	w.Flush()
	return sb.String()
}

// MeasureRecords converts measured rows into bench-ledger records (Kind
// "measure"): Makespan carries the prediction, Efficiency the measured
// speedup over P, and the real-run profile summary rides along.
func MeasureRecords(rows []MeasureRow, cm exec.CommModel) []obs.BenchRecord {
	recs := make([]obs.BenchRecord, 0, len(rows))
	for _, r := range rows {
		prof := r.Profile
		recs = append(recs, obs.BenchRecord{
			Matrix: r.Name, Strategy: r.Strategy, Kind: "measure",
			P: r.P, Alpha: cm.Alpha, Beta: cm.Beta,
			Makespan:   r.PredMakespan,
			Traffic:    r.Traffic,
			Efficiency: r.Speedup / float64(r.P),
			Profile:    &prof,

			SerialNs:        r.SerialNs,
			MeasuredNs:      r.ParallelNs,
			MeasuredSpeedup: r.Speedup,
			PredSpeedup:     r.PredSpeedup,
		})
	}
	return recs
}
