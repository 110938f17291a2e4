package tables

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/strategy"
)

// Tile2DRow is one cell of the 2D tile-ownership study (Ext-T, and the
// tile2d series of cmd/sweep): one 2D strategy — a native tile mapper or
// a col2d-lifted 1D strategy — on one problem and processor count,
// measured by the tile-granular traffic simulator (deduplicated total
// split into fan-out and fan-in) and the comm-aware makespans over the
// merged tile-segment task graph.
type Tile2DRow struct {
	Cell
	// R is the number of shared diagonal intervals (the tiling is R x R).
	R int
	// Traffic is the deduplicated 2D total; FanOut and FanIn partition it
	// by direction (sources along the target's tile row vs its tile
	// column).
	Traffic, FanOut, FanIn int64
	// A is the paper's load imbalance factor over the tile ownership.
	A float64
	// CommSpan is the comm-aware dynamic makespan under the study's
	// CommModel; ComputeSpan the same simulation with communication free;
	// StaticCommSpan the comm-aware span under static scan order.
	ComputeSpan, CommSpan, StaticCommSpan int64
	// Best marks the lowest CommSpan among the strategies at this (Name, P).
	Best bool
}

// Tile2DProcs is the processor sweep of the Ext-T study: the paper's
// small/medium points plus P=64, where the 2D ownership's traffic
// advantage over column flattening is largest.
var Tile2DProcs = []int{4, 16, 64}

// Tile2D evaluates the labelled 2D strategies (all of Labels2D when labels
// is empty: the native tile mappers and the col2d lifts of the
// column-granular 1D strategies) across the processor sweep under opts
// and one communication model (Ext-T).
func Tile2D(p *Problem, procs []int, labels []string, opts strategy.Options, cm exec.CommModel) ([]Tile2DRow, error) {
	if err := cm.Valid(); err != nil {
		return nil, fmt.Errorf("tables: %w", err)
	}
	if len(labels) == 0 {
		labels = Labels2D()
	}
	rows, err := study([]*Problem{p}, procs, labels, opts, func(c Cell) (Tile2DRow, error) {
		pl := c.Plan
		tr := pl.Traffic2D()
		return Tile2DRow{
			Cell: c, R: pl.S2.R(),
			Traffic: tr.Total, FanOut: tr.TotalFanOut(), FanIn: tr.TotalFanIn(),
			A:              pl.S2.Imbalance(),
			ComputeSpan:    pl.Simulate(exec.SimOptions{Dynamic: true}).Makespan,
			CommSpan:       pl.Simulate(exec.SimOptions{Dynamic: true, Comm: cm}).Makespan,
			StaticCommSpan: pl.MakespanComm(cm).Makespan,
		}, nil
	})
	markBest(rows, len(labels), func(r *Tile2DRow) (int64, *bool) { return r.CommSpan, &r.Best })
	return rows, err
}

// FormatTile2D renders the 2D tile-ownership study.
func FormatTile2D(name string, cm exec.CommModel, rows []Tile2DRow) string {
	return text(fmt.Sprintf("Ext-T: 2D tile ownership (fan-out/fan-in traffic, comm-aware dynamic span), %s, alpha=%g, beta=%g\n",
		name, cm.Alpha, cm.Beta),
		"Appl\tP\tStrategy\tR\tTraffic\tFan-out\tFan-in\tImbalance A\tSpan compute\tSpan comm\tBest", rows,
		func(r Tile2DRow) string {
			return fmt.Sprintf("%s\t%d\t%s\t%d\t%d\t%d\t%d\t%.3f\t%d\t%d\t%s",
				r.Name, r.P, r.Strategy, r.R, r.Traffic, r.FanOut, r.FanIn, r.A, r.ComputeSpan, r.CommSpan,
				star[r.Best])
		})
}

// Tile2DCSV renders the tile2d series of cmd/sweep.
func Tile2DCSV(rows []Tile2DRow) string {
	return csv("strategy,procs,r,traffic2d,fanout,fanin,imbalance,span_compute,span_comm,span_comm_dynamic", rows,
		func(r Tile2DRow) string {
			return fmt.Sprintf("%s,%d,%d,%d,%d,%d,%.4f,%d,%d,%d",
				r.Strategy, r.P, r.R, r.Traffic, r.FanOut, r.FanIn, r.A, r.ComputeSpan, r.StaticCommSpan, r.CommSpan)
		})
}
