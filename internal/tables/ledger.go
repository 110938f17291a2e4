package tables

import (
	"io"
	"slices"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/strategy"
)

// traced runs the comm-aware dynamic simulation of the cell's plan with a
// tracer attached: the one run behind every simulated ledger record and
// every exported trace.
func (c Cell) traced(cm exec.CommModel) ([]exec.TaskEvent, exec.SimResult) {
	tracer := obs.NewTracer()
	res := c.Plan.Simulate(exec.SimOptions{Dynamic: true, Comm: cm, Probe: tracer})
	return tracer.Events, res
}

// Record profiles the traced run into a bench-ledger record of the given
// kind, so it carries the busy/comm/idle/stall breakdown and the
// critical-path attribution next to the headline makespan, traffic and
// efficiency numbers.
func (c Cell) Record(kind string, cm exec.CommModel) (obs.BenchRecord, error) {
	events, res := c.traced(cm)
	prof, err := obs.BuildProfile(events, res)
	if err != nil {
		return obs.BenchRecord{}, err
	}
	sum := prof.Summary()
	return obs.BenchRecord{
		Matrix: c.Name, Strategy: c.Strategy, Kind: kind, P: c.P,
		Alpha: cm.Alpha, Beta: cm.Beta,
		Makespan: res.Makespan, Traffic: c.Plan.TrafficTotal(), Efficiency: res.Efficiency,
		Profile: &sum,
	}, nil
}

// WriteTrace exports the traced run in the named obs trace format.
func (c Cell) WriteTrace(w io.Writer, format string, cm exec.CommModel) error {
	events, res := c.traced(cm)
	return obs.WriteTrace(w, format, events, res)
}

// BenchLedger benchmarks every registered mapping strategy — the 1D
// registry at the production partitioning (kind "strategy") and the
// native 2D mappers (kind "tile2d"; col2d is parameterized by a base and
// its lifts equal 1D rows) — on every problem and processor count, one
// Record each. The result is the machine-readable BENCH_*.json payload CI
// archives per PR.
func BenchLedger(problems []*Problem, procs []int, cm exec.CommModel) (*obs.Ledger, error) {
	ledger := obs.NewLedger()
	for _, p := range problems {
		for _, np := range procs {
			for _, label := range slices.Concat(strategy.Names(), native2D()) {
				c, err := p.Cell(label, np, Production)
				if err != nil {
					return nil, err
				}
				kind := "strategy"
				if c.Plan.Is2D() {
					kind = "tile2d"
				}
				rec, err := c.Record(kind, cm)
				if err != nil {
					return nil, err
				}
				ledger.Add(rec)
			}
		}
	}
	return ledger, nil
}
