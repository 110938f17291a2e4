package tables

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/strategy"
)

// StrategyRow is one cell of the cross-strategy comparison (extension
// Ext-S): one registered mapping strategy evaluated on one test matrix at
// one processor count by all three of the repository's metrics.
type StrategyRow struct {
	Name        string
	P           int
	Strategy    string
	Total       int64   // data traffic
	Mean        float64 // traffic per processor
	A           float64 // load imbalance factor
	BoundEff    float64 // 1/(1+A)
	MakespanEff float64 // dependency-delay simulation efficiency
}

// StrategyCompare evaluates every registered mapping strategy on every
// problem and processor count with the paper's base partitioning knobs
// (grain 25, the Tables 2-3 production setting). Strategies added through
// strategy.Register — most recently the communication-optimal pair, the
// symmetric rectilinear mapper and the total-traffic-optimal contiguous
// split — appear with no changes here.
func StrategyCompare(problems []*Problem, procs []int) ([]StrategyRow, error) {
	opts := strategy.Options{Part: core.Options{Grain: 25, MinClusterWidth: DefaultWidth}}
	var rows []StrategyRow
	for _, p := range problems {
		for _, np := range procs {
			for _, name := range strategy.Names() {
				pl, err := p.An.Plan(name, np, opts)
				if err != nil {
					return nil, fmt.Errorf("tables: strategy %s on %s P=%d: %w",
						name, p.Meta.Name, np, err)
				}
				total := pl.TrafficTotal()
				rows = append(rows, StrategyRow{
					Name: p.Meta.Name, P: np, Strategy: name,
					Total: total, Mean: float64(total) / float64(np),
					A: pl.S1.Imbalance(), BoundEff: pl.S1.Efficiency(),
					MakespanEff: pl.Makespan().Efficiency,
				})
			}
		}
	}
	return rows, nil
}

// FormatStrategyCompare renders the cross-strategy comparison.
func FormatStrategyCompare(rows []StrategyRow) string {
	var sb strings.Builder
	sb.WriteString("Ext-S: Cross-strategy comparison (every registered mapping strategy, g=25)\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Appl\tP\tStrategy\tTraffic\tMean/proc\tImbalance A\tBound 1/(1+A)\tMakespan eff")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%.1f\t%.4f\t%.3f\t%.3f\n",
			r.Name, r.P, r.Strategy, r.Total, r.Mean, r.A, r.BoundEff, r.MakespanEff)
	}
	w.Flush()
	return sb.String()
}
