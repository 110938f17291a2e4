package tables

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/strategy"
)

// UnifiedRow is one cell of the unified comm-aware makespan study (Ext-M):
// one registered strategy on one problem and processor count, timed by the
// dynamic makespan simulation with and without the α/β communication
// model. This is the table the paper's Section 4 gestures at but never
// prints — a single time estimate in which the block scheme's traffic
// savings and the wrap mapping's balance advantage compete directly.
type UnifiedRow struct {
	Name     string
	P        int
	Strategy string
	// ComputeSpan is the dynamic makespan with communication free
	// (CommModel zero); CommSpan charges the model's α/β costs.
	ComputeSpan int64
	CommSpan    int64
	// FetchVol and Msgs total the per-task fetch volumes and consolidated
	// message counts of the schedule.
	FetchVol int64
	Msgs     int64
	// CommFrac is the communication share of the total busy time.
	CommFrac float64
	// Best marks the lowest CommSpan among the strategies at this (Name, P).
	Best bool
}

// UnifiedComm evaluates the named strategies (all registered ones when
// names is nil or empty, which includes registry additions such as
// subcube automatically) across the processor sweep at the paper's
// production partitioning (g=25) under one communication model.
func UnifiedComm(p *Problem, procs []int, names []string, cm exec.CommModel) ([]UnifiedRow, error) {
	if len(names) == 0 {
		names = strategy.Names()
	}
	opts := strategy.Options{Part: core.Options{Grain: 25, MinClusterWidth: DefaultWidth}}
	var rows []UnifiedRow
	for _, np := range procs {
		start := len(rows)
		for _, name := range names {
			pl, err := p.An.Plan(name, np, opts)
			if err != nil {
				return nil, fmt.Errorf("tables: strategy %s on %s P=%d: %w",
					name, p.Meta.Name, np, err)
			}
			comp := pl.Simulate(exec.SimOptions{Dynamic: true})
			comm := pl.Simulate(exec.SimOptions{Dynamic: true, Comm: cm})
			frac := 0.0
			if comm.TotalWork > 0 {
				frac = float64(comm.Comm) / float64(comm.TotalWork)
			}
			rows = append(rows, UnifiedRow{
				Name: p.Meta.Name, P: np, Strategy: name,
				ComputeSpan: comp.Makespan, CommSpan: comm.Makespan,
				FetchVol: pl.Fetch.TotalVol(), Msgs: pl.Fetch.TotalMsgs(),
				CommFrac: frac,
			})
		}
		best := start
		for i := start + 1; i < len(rows); i++ {
			if rows[i].CommSpan < rows[best].CommSpan {
				best = i
			}
		}
		rows[best].Best = true
	}
	return rows, nil
}

// FormatUnifiedComm renders the unified comm-aware makespan study.
func FormatUnifiedComm(name string, cm exec.CommModel, rows []UnifiedRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ext-M: Unified comm-aware makespan (dynamic exec), %s, g=25, alpha=%g, beta=%g\n",
		name, cm.Alpha, cm.Beta)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Appl\tP\tStrategy\tSpan compute\tSpan comm\tFetch vol\tMsgs\tComm frac\tBest")
	for _, r := range rows {
		best := ""
		if r.Best {
			best = "*"
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\t%d\t%.3f\t%s\n",
			r.Name, r.P, r.Strategy, r.ComputeSpan, r.CommSpan, r.FetchVol, r.Msgs, r.CommFrac, best)
	}
	w.Flush()
	return sb.String()
}
