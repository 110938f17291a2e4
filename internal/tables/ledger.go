package tables

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/part2d"
	"repro/internal/pipeline"
	"repro/internal/strategy"
)

// BenchLedger benchmarks every registered mapping strategy — the 1D
// registry with the paper's production partitioning knobs (grain 25,
// width 4) and the native 2D mappers (col2d excluded, it is
// parameterized) — on every problem and processor count, under the
// comm-aware dynamic makespan simulation with cm. Each run is traced and
// profiled, so every record carries the busy/comm/idle/stall breakdown
// and the critical-path attribution next to the headline makespan,
// traffic and efficiency numbers. The result is the machine-readable
// BENCH_*.json payload CI archives per PR.
func BenchLedger(problems []*Problem, procs []int, cm exec.CommModel) (*obs.Ledger, error) {
	ledger := obs.NewLedger()
	opts := strategy.Options{Part: core.Options{Grain: 25, MinClusterWidth: DefaultWidth}}
	// record traces the comm-aware dynamic run of one mapped cell and
	// profiles the events into a ledger record.
	record := func(matrix, kind string, pl *pipeline.Plan) error {
		tracer := obs.NewTracer()
		res := pl.Simulate(exec.SimOptions{Dynamic: true, Comm: cm, Probe: tracer})
		prof, err := obs.BuildProfile(tracer.Events, res)
		if err != nil {
			return err
		}
		sum := prof.Summary()
		ledger.Add(obs.BenchRecord{
			Matrix: matrix, Strategy: pl.Strategy, Kind: kind, P: pl.P,
			Alpha: cm.Alpha, Beta: cm.Beta,
			Makespan: res.Makespan, Traffic: pl.TrafficTotal(), Efficiency: res.Efficiency,
			Profile: &sum,
		})
		return nil
	}
	for _, p := range problems {
		for _, np := range procs {
			for _, name := range strategy.Names() {
				pl, err := p.An.Plan(name, np, opts)
				if err == nil {
					err = record(p.Meta.Name, "strategy", pl)
				}
				if err != nil {
					return nil, fmt.Errorf("tables: ledger %s on %s P=%d: %w", name, p.Meta.Name, np, err)
				}
			}
			for _, name := range part2d.Names2D() {
				if name == "col2d" {
					continue // parameterized by a base; its lifts equal 1D rows
				}
				pl, err := p.An.Plan2D(name, np, strategy.Options{})
				if err == nil {
					err = record(p.Meta.Name, "tile2d", pl)
				}
				if err != nil {
					return nil, fmt.Errorf("tables: ledger %s on %s P=%d: %w", name, p.Meta.Name, np, err)
				}
			}
		}
	}
	return ledger, nil
}
