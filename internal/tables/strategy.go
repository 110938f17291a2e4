package tables

import (
	"fmt"

	"repro/internal/strategy"
)

// StrategyRow is one cell of the cross-strategy comparison (extension
// Ext-S, and the strategy and procs series of cmd/sweep): one registered
// mapping strategy evaluated on one test matrix at one processor count by
// all three of the repository's metrics.
type StrategyRow struct {
	Cell
	Total       int64   // data traffic
	Mean        float64 // traffic per processor
	A           float64 // load imbalance factor
	BoundEff    float64 // 1/(1+A)
	MakespanEff float64 // dependency-delay simulation efficiency
}

// StrategyCompare evaluates the named 1D strategies (every registered one
// when names is empty, so additions through strategy.Register appear with
// no changes here) on every problem and processor count under opts.
func StrategyCompare(problems []*Problem, procs []int, names []string, opts strategy.Options) ([]StrategyRow, error) {
	if len(names) == 0 {
		names = strategy.Names()
	}
	return study(problems, procs, names, opts, func(c Cell) (StrategyRow, error) {
		total, s := c.Plan.TrafficTotal(), c.Plan.S1
		return StrategyRow{
			Cell: c, Total: total, Mean: float64(total) / float64(c.P),
			A: s.Imbalance(), BoundEff: s.Efficiency(),
			MakespanEff: c.Plan.Makespan().Efficiency,
		}, nil
	})
}

// FormatStrategyCompare renders the cross-strategy comparison.
func FormatStrategyCompare(rows []StrategyRow) string {
	return text("Ext-S: Cross-strategy comparison (every registered mapping strategy, g=25)\n",
		"Appl\tP\tStrategy\tTraffic\tMean/proc\tImbalance A\tBound 1/(1+A)\tMakespan eff", rows,
		func(r StrategyRow) string {
			return fmt.Sprintf("%s\t%d\t%s\t%d\t%.1f\t%.4f\t%.3f\t%.3f",
				r.Name, r.P, r.Strategy, r.Total, r.Mean, r.A, r.BoundEff, r.MakespanEff)
		})
}

// StrategyCSV renders the strategy series of cmd/sweep.
func StrategyCSV(rows []StrategyRow) string {
	return csv("strategy,procs,traffic,mean_traffic,imbalance,efficiency_bound,makespan_eff", rows,
		func(r StrategyRow) string {
			return fmt.Sprintf("%s,%d,%d,%.1f,%.4f,%.4f,%.4f",
				r.Strategy, r.P, r.Total, r.Mean, r.A, r.BoundEff, r.MakespanEff)
		})
}

// ProcsCSV renders the procs series of cmd/sweep: the same columns keyed
// (P, scheme).
func ProcsCSV(rows []StrategyRow) string {
	return csv("procs,scheme,traffic,mean_traffic,imbalance,efficiency_bound,makespan_eff_static", rows,
		func(r StrategyRow) string {
			return fmt.Sprintf("%d,%s,%d,%.1f,%.4f,%.4f,%.4f",
				r.P, r.Strategy, r.Total, r.Mean, r.A, r.BoundEff, r.MakespanEff)
		})
}
