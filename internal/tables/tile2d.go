package tables

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/exec"
	"repro/internal/part2d"
	"repro/internal/pipeline"
	"repro/internal/strategy"
)

// Tile2DRow is one cell of the 2D tile-ownership study (Ext-T): one 2D
// strategy — a native tile mapper or a col2d-lifted 1D strategy — on one
// problem and processor count, measured by the tile-granular traffic
// simulator (deduplicated total split into fan-out and fan-in) and the
// comm-aware dynamic makespan over the merged tile-segment task graph.
type Tile2DRow struct {
	Name     string
	P        int
	Strategy string
	// R is the number of shared diagonal intervals (the tiling is R x R).
	R int
	// Traffic is the deduplicated 2D total; FanOut and FanIn partition it
	// by direction (sources along the target's tile row vs its tile
	// column).
	Traffic, FanOut, FanIn int64
	// A is the paper's load imbalance factor over the tile ownership.
	A float64
	// CommSpan is the comm-aware dynamic makespan under the study's
	// CommModel; ComputeSpan the same simulation with communication free.
	ComputeSpan, CommSpan int64
	// Best marks the lowest CommSpan among the strategies at this (Name, P).
	Best bool
}

// Tile2DProcs is the processor sweep of the Ext-T study: the paper's
// small/medium points plus P=64, where the 2D ownership's traffic
// advantage over column flattening is largest.
var Tile2DProcs = []int{4, 16, 64}

// tile2DEntry is one point of the 2D strategy axis the Ext-T, Ext-W and
// Ext-Cal studies share: a native tile mapper, or the col2d lift of one
// column-granular 1D strategy, labelled "col2d:<base>".
type tile2DEntry struct {
	label, name string
	opts        strategy.Options
}

// tile2DEntries enumerates that axis: every native 2D mapper (col2d
// excluded, it is parameterized), then every col2d lift.
func tile2DEntries() []tile2DEntry {
	var entries []tile2DEntry
	for _, name := range part2d.Names2D() {
		if name != "col2d" {
			entries = append(entries, tile2DEntry{label: name, name: name})
		}
	}
	for _, base := range part2d.LiftBases() {
		entries = append(entries, tile2DEntry{
			label: "col2d:" + base, name: "col2d", opts: strategy.Options{Base: base},
		})
	}
	return entries
}

// plan2D maps the problem with one entry of the 2D strategy axis.
func (p *Problem) plan2D(e tile2DEntry, np int) (*pipeline.Plan, error) {
	pl, err := p.An.Plan2D(e.name, np, e.opts)
	if err != nil {
		return nil, fmt.Errorf("tables: 2D strategy %s on %s P=%d: %w", e.label, p.Meta.Name, np, err)
	}
	return pl, nil
}

// Tile2D evaluates the native 2D tile mappers and the col2d lifts of the
// column-granular 1D strategies (part2d.LiftBases) across the processor
// sweep under one communication model (Ext-T).
func Tile2D(p *Problem, procs []int, cm exec.CommModel) ([]Tile2DRow, error) {
	var rows []Tile2DRow
	for _, np := range procs {
		start := len(rows)
		for _, e := range tile2DEntries() {
			pl, err := p.plan2D(e, np)
			if err != nil {
				return nil, err
			}
			tr := pl.Traffic2D()
			comp := pl.Simulate(exec.SimOptions{Dynamic: true})
			comm := pl.Simulate(exec.SimOptions{Dynamic: true, Comm: cm})
			rows = append(rows, Tile2DRow{
				Name: p.Meta.Name, P: np, Strategy: e.label,
				R:       pl.S2.R(),
				Traffic: tr.Total, FanOut: tr.TotalFanOut(), FanIn: tr.TotalFanIn(),
				A:           pl.S2.Imbalance(),
				ComputeSpan: comp.Makespan, CommSpan: comm.Makespan,
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

// FormatTile2D renders the 2D tile-ownership study.
func FormatTile2D(name string, cm exec.CommModel, rows []Tile2DRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ext-T: 2D tile ownership (fan-out/fan-in traffic, comm-aware dynamic span), %s, alpha=%g, beta=%g\n",
		name, cm.Alpha, cm.Beta)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Appl\tP\tStrategy\tR\tTraffic\tFan-out\tFan-in\tImbalance A\tSpan compute\tSpan comm\tBest")
	for _, r := range rows {
		best := ""
		if r.Best {
			best = "*"
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\t%d\t%.3f\t%d\t%d\t%s\n",
			r.Name, r.P, r.Strategy, r.R, r.Traffic, r.FanOut, r.FanIn, r.A, r.ComputeSpan, r.CommSpan, best)
	}
	w.Flush()
	return sb.String()
}
