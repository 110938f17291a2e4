package tables

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/pipeline"
)

// DynamicRow compares static scan-order execution with dynamic
// critical-path execution (Ext-H).
type DynamicRow struct {
	Name                  string
	P                     int
	Scheme                string
	StaticEff, DynamicEff float64
	CritPathEff           float64 // upper bound: TotalWork / (P * CritPath)
}

// DynamicCompare measures how much a dynamic ready-queue recovers over
// static scan-order execution for the block scheme (g=25) and wrap.
func DynamicCompare(problems []*Problem) ([]DynamicRow, error) {
	return overSuite(problems, DefaultProcs, func(p *Problem, np int) ([]DynamicRow, error) {
		block, wrap, err := p.pair(np)
		if err != nil {
			return nil, err
		}
		row := func(scheme string, pl *pipeline.Plan) DynamicRow {
			st := pl.Makespan()
			return DynamicRow{
				Name: p.Meta.Name, P: np, Scheme: scheme,
				StaticEff:   st.Efficiency,
				DynamicEff:  pl.Simulate(exec.SimOptions{Dynamic: true}).Efficiency,
				CritPathEff: exec.Efficiency(np, exec.CriticalPath(pl.Tasks), st.TotalWork),
			}
		}
		return []DynamicRow{row("block g=25", block), row("wrap", wrap)}, nil
	})
}

// FormatDynamicCompare renders the static-vs-dynamic execution study.
func FormatDynamicCompare(rows []DynamicRow) string {
	return text("Ext-H: Static scan-order vs dynamic critical-path execution\n",
		"Appl\tP\tScheme\tEff static\tEff dynamic\tEff bound (CP)", rows,
		func(r DynamicRow) string {
			return fmt.Sprintf("%s\t%d\t%s\t%.3f\t%.3f\t%.3f",
				r.Name, r.P, r.Scheme, r.StaticEff, r.DynamicEff, r.CritPathEff)
		})
}

// CrossoverRow is one machine point of the block-vs-wrap crossover study
// (Ext-I). The paper's Section 4 argues that "if the application is run on
// a system with high communication cost as compared to computation cost,
// the block-based partitioning can give good performance, i.e. the savings
// in communication will more than offset the disadvantage of load
// imbalance". Modeling per-processor time as
//
//	T = Wmax + commCost * maxPerProcTraffic
//
// (work units per flop-pair, commCost work units per fetched element)
// makes that claim quantitative: the study sweeps commCost and reports the
// estimated times and the winner.
type CrossoverRow struct {
	CommCost  float64
	BlockTime float64 // block mapping, g=25
	WrapTime  float64
	Winner    string
}

// Crossover sweeps the communication/computation cost ratio for one
// problem and processor count. point is the communication cost at which
// the block scheme begins to beat wrap under the closed-form model: -1 if
// block never wins, 0 if it always does.
func Crossover(p *Problem, np int, costs []float64) (rows []CrossoverRow, point float64, err error) {
	block, wrap, err := p.pair(np)
	if err != nil {
		return nil, 0, err
	}
	bWork, bComm := float64(block.S1.MaxWork()), float64(block.Traffic().MaxPerProc())
	wWork, wComm := float64(wrap.S1.MaxWork()), float64(wrap.Traffic().MaxPerProc())
	for _, c := range costs {
		bt, wt := bWork+c*bComm, wWork+c*wComm
		rows = append(rows, CrossoverRow{CommCost: c, BlockTime: bt, WrapTime: wt, Winner: winner[bt < wt]})
	}
	// dw is block's balance penalty, dc its traffic saving.
	switch dw, dc := bWork-wWork, wComm-bComm; {
	case dc <= 0:
		point = -1
	case dw > 0:
		point = dw / dc
	}
	return rows, point, nil
}

// winner names the faster mapping of a block-vs-wrap comparison, keyed by
// whether block wins.
var winner = map[bool]string{true: "block", false: "wrap"}

// FormatCrossover renders the machine-parameter study.
func FormatCrossover(name string, np int, rows []CrossoverRow, point float64) string {
	return text(fmt.Sprintf("Ext-I: Block-vs-wrap crossover, %s, P=%d (T = Wmax + c*maxTraffic)\n", name, np),
		"Comm cost c\tBlock time\tWrap time\tWinner", rows,
		func(r CrossoverRow) string {
			return fmt.Sprintf("%.2f\t%.0f\t%.0f\t%s", r.CommCost, r.BlockTime, r.WrapTime, r.Winner)
		}) + fmt.Sprintf("crossover at c = %.2f work units per fetched element\n", point)
}
