package tables

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/strategy"
)

// UnifiedRow is one cell of the unified comm-aware makespan study (Ext-M,
// and the comm series of cmd/sweep): one registered strategy on one
// problem and processor count, timed by the makespan simulations with and
// without the α/β communication model. This is the table the paper's
// Section 4 gestures at but never prints — a single time estimate in which
// the block scheme's traffic savings and the wrap mapping's balance
// advantage compete directly.
type UnifiedRow struct {
	Cell
	// ComputeSpan is the dynamic makespan with communication free
	// (CommModel zero); CommSpan charges the model's α/β costs.
	ComputeSpan int64
	CommSpan    int64
	// StaticSpan and StaticCommSpan are the same two spans under static
	// per-processor scan order (what the comm series prints next to the
	// dynamic comm span).
	StaticSpan, StaticCommSpan int64
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
// subcube automatically) across the processor sweep under opts and one
// communication model.
func UnifiedComm(p *Problem, procs []int, names []string, opts strategy.Options, cm exec.CommModel) ([]UnifiedRow, error) {
	if len(names) == 0 {
		names = strategy.Names()
	}
	rows, err := study([]*Problem{p}, procs, names, opts, func(c Cell) (UnifiedRow, error) {
		pl := c.Plan
		comm := pl.Simulate(exec.SimOptions{Dynamic: true, Comm: cm})
		frac := 0.0
		if comm.TotalWork > 0 {
			frac = float64(comm.Comm) / float64(comm.TotalWork)
		}
		return UnifiedRow{
			Cell:        c,
			ComputeSpan: pl.Simulate(exec.SimOptions{Dynamic: true}).Makespan, CommSpan: comm.Makespan,
			StaticSpan: pl.Makespan().Makespan, StaticCommSpan: pl.MakespanComm(cm).Makespan,
			FetchVol: pl.Fetch.TotalVol(), Msgs: pl.Fetch.TotalMsgs(),
			CommFrac: frac,
		}, nil
	})
	markBest(rows, len(names), func(r *UnifiedRow) (int64, *bool) { return r.CommSpan, &r.Best })
	return rows, err
}

// FormatUnifiedComm renders the unified comm-aware makespan study (at the
// production partitioning, which the title names).
func FormatUnifiedComm(name string, cm exec.CommModel, rows []UnifiedRow) string {
	return text(fmt.Sprintf("Ext-M: Unified comm-aware makespan (dynamic exec), %s, g=25, alpha=%g, beta=%g\n",
		name, cm.Alpha, cm.Beta),
		"Appl\tP\tStrategy\tSpan compute\tSpan comm\tFetch vol\tMsgs\tComm frac\tBest", rows,
		func(r UnifiedRow) string {
			return fmt.Sprintf("%s\t%d\t%s\t%d\t%d\t%d\t%d\t%.3f\t%s",
				r.Name, r.P, r.Strategy, r.ComputeSpan, r.CommSpan, r.FetchVol, r.Msgs, r.CommFrac, star[r.Best])
		})
}

// CommCSV renders the comm series of cmd/sweep.
func CommCSV(cm exec.CommModel, rows []UnifiedRow) string {
	return csv("strategy,procs,alpha,beta,fetch_vol,fetch_msgs,span_compute,span_comm,span_comm_dynamic,comm_frac", rows,
		func(r UnifiedRow) string {
			return fmt.Sprintf("%s,%d,%g,%g,%d,%d,%d,%d,%d,%.4f",
				r.Strategy, r.P, cm.Alpha, cm.Beta, r.FetchVol, r.Msgs, r.StaticSpan, r.StaticCommSpan, r.CommSpan,
				r.CommFrac)
		})
}
