// Tiles2d: the 2D tile-ownership subsystem end to end.
//
// Every 1D schedule in the repository assigns whole block columns to
// processors; the 2D subsystem (internal/part2d) assigns each
// (rowBlock, colBlock) tile of a shared diagonal interval structure
// instead. This example walks the three claims the subsystem makes on
// LAP30:
//
//  1. Conservation: the fan-out/fan-in tile attribution of the 2D
//     traffic simulator sums exactly to the deduplicated total of the 1D
//     simulator over the derived element ownership.
//  2. The col2d bridge: any column-granular 1D strategy lifts to a
//     tiling whose 2D traffic and makespans are bit-identical to the 1D
//     measurements, so 1D and 2D strategies compare in one harness.
//  3. The trade: rect2d keeps total traffic at or below the
//     column-flattened rectilinear schedule, while rect2dlpt and
//     rect2dcyclic spend extra traffic to break the column task chain —
//     more than halving the unified comm-aware dynamic span at P >= 16.
package main

import (
	"fmt"
	"log"

	"repro"
)

const procs = 16

func main() {
	an, err := repro.AnalyzePattern(repro.LAP30())
	if err != nil {
		log.Fatal(err)
	}
	cm := repro.CommModel{Alpha: 2, Beta: 10}
	unified := repro.SimOptions{Dynamic: true, Comm: cm}
	opts := repro.StrategyOptions{}
	// plan1D and plan2D map LAP30 through the two registries.
	plan1D := func(name string) *repro.Plan {
		pl, err := an.Plan(name, procs, opts)
		if err != nil {
			log.Fatal(err)
		}
		return pl
	}
	plan2D := func(name, base string) *repro.Plan {
		o := opts
		o.Base = base
		pl, err := an.Plan2D(name, procs, o)
		if err != nil {
			log.Fatal(err)
		}
		return pl
	}

	fmt.Printf("LAP30 on %d processors, 2D tile ownership (alpha=%g, beta=%g):\n\n",
		procs, cm.Alpha, cm.Beta)
	fmt.Printf("%-20s %4s %9s %9s %9s %12s %11s\n",
		"strategy", "R", "traffic", "fan-out", "fan-in", "imbalance A", "comm span")
	show := func(label string, pl *repro.Plan) {
		tr := pl.Traffic2D()
		fmt.Printf("%-20s %4d %9d %9d %9d %12.4f %11d\n",
			label, pl.S2.R(), tr.Total, tr.TotalFanOut(), tr.TotalFanIn(),
			pl.S2.Imbalance(), pl.Simulate(unified).Makespan)
		if tr.TotalFanOut()+tr.TotalFanIn() != tr.Total {
			log.Fatalf("%s: conservation violated", label)
		}
	}
	for _, name := range repro.Strategies2D() {
		if name == "col2d" {
			continue // lifted per base below
		}
		show(name, plan2D(name, ""))
	}
	for _, base := range repro.LiftBases2D() {
		show("col2d:"+base, plan2D("col2d", base))
	}

	// The col2d bridge is exact: the lifted wrap schedule reproduces the
	// 1D traffic total and the 1D comm-aware dynamic makespan bit for bit.
	wrap1d, wrap2d := plan1D("wrap"), plan2D("col2d", "wrap")
	fmt.Printf("\ncol2d:wrap vs 1D wrap: traffic %d vs %d, comm span %d vs %d\n",
		wrap2d.Traffic2D().Total, wrap1d.TrafficTotal(),
		wrap2d.Simulate(unified).Makespan, wrap1d.Simulate(unified).Makespan)

	// The rect2d guarantee: never more traffic than flattening the same
	// cuts back to block columns (col2d:rectilinear).
	fmt.Printf("rect2d traffic %d <= column-flattened rectilinear %d\n",
		plan2D("rect2d", "").Traffic2D().Total, plan1D("rectilinear").TrafficTotal())
}
