// Strategies: the partitioning-strategy table end to end.
//
// The paper compares two fixed mapping schemes; internal/strategy turns
// the choice into a table of named functions so any number of schemes
// produce ordinary schedules that the traffic, load-balance and makespan
// simulators evaluate unchanged. This example maps LAP30 on 16 processors
// with every strategy in the table, then shows the composition knobs:
// the blockcyclic block-size sweep (interpolating from wrap to contiguous
// locality), the work-slack sweep of the total-communication-optimal
// contigtotal mapper, the refine pass stacked on different bases
// (including the subtree-to-subcube, symmetric-rectilinear and
// contigtotal mappers), and a refine pass driven directly by the unified
// comm-aware dynamic makespan (objective "commspan").
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
	// plan maps LAP30 with the named strategy: one schedule with its task
	// graph and fetch attribution, which every metric below reads.
	plan := func(name string, o repro.StrategyOptions) *repro.Plan {
		pl, err := an.Plan(name, procs, o)
		if err != nil {
			log.Fatal(err)
		}
		return pl
	}
	opts := repro.StrategyOptions{
		Part: repro.PartitionOptions{Grain: 25, MinClusterWidth: 4},
	}

	fmt.Printf("LAP30 on %d processors, every registered strategy:\n\n", procs)
	fmt.Printf("%-14s %10s %12s %10s %12s\n",
		"strategy", "traffic", "imbalance A", "1/(1+A)", "makespan eff")
	for _, name := range repro.Strategies() {
		pl := plan(name, opts)
		fmt.Printf("%-14s %10d %12.4f %10.3f %12.3f\n",
			name, pl.TrafficTotal(), pl.S1.Imbalance(), pl.S1.Efficiency(), pl.Makespan().Efficiency)
	}

	fmt.Printf("\nblockcyclic block-size sweep (1 = wrap):\n\n")
	fmt.Printf("%-14s %10s %12s\n", "block size", "traffic", "imbalance A")
	for _, bs := range []int{1, 2, 4, 8, 16, 32} {
		o := opts
		o.BlockSize = bs
		pl := plan("blockcyclic", o)
		fmt.Printf("%-14d %10d %12.4f\n", bs, pl.TrafficTotal(), pl.S1.Imbalance())
	}

	// contigtotal is optimal by construction: among all contiguous splits
	// whose bottleneck stays within (1 + slack) of the optimum, it picks
	// the one with the smallest total traffic. Slack trades balance for
	// communication explicitly.
	fmt.Printf("\ncontigtotal work-slack sweep (0 = bottleneck-optimal splits only):\n\n")
	fmt.Printf("%-14s %10s %12s\n", "slack", "traffic", "imbalance A")
	for _, slack := range []float64{0, 0.05, 0.1, 0.25} {
		o := opts
		o.Slack = slack
		pl := plan("contigtotal", o)
		fmt.Printf("%-14g %10d %12.4f\n", slack, pl.TrafficTotal(), pl.S1.Imbalance())
	}

	fmt.Printf("\nrefine composed on each base (objective = imbalance, then traffic):\n\n")
	fmt.Printf("%-14s %16s %16s %16s\n",
		"base", "base A/traffic", "refined A", "refined traffic")
	for _, base := range []string{"block", "wrap", "contiguous", "contigtotal", "rectilinear", "blockcyclic", "subcube"} {
		basePl := plan(base, opts)
		ob := opts
		ob.Base = base
		balanced := plan("refine", ob)
		ot := ob
		ot.Objective = "traffic"
		lean := plan("refine", ot)
		fmt.Printf("%-14s %8.4f/%7d %16.4f %16d\n",
			base, basePl.S1.Imbalance(), basePl.TrafficTotal(),
			balanced.S1.Imbalance(), lean.TrafficTotal())
	}

	// The commspan objective hill-climbs the unified comm-aware dynamic
	// span itself — the single number in which traffic, latency, balance
	// and dependency structure all interact.
	cm := repro.CommModel{Alpha: 2, Beta: 10}
	fmt.Printf("\nrefine(block, commspan) under alpha=%g beta=%g:\n\n", cm.Alpha, cm.Beta)
	oc := opts
	oc.Base = "block"
	oc.Objective = "commspan"
	oc.Comm = cm
	oc.MaxMoves = 200
	unified := repro.SimOptions{Dynamic: true, Comm: cm}
	fmt.Printf("%-14s %16s\n", "schedule", "unified span")
	fmt.Printf("%-14s %16d\n", "block", plan("block", oc).Simulate(unified).Makespan)
	fmt.Printf("%-14s %16d\n", "refined", plan("refine", oc).Simulate(unified).Makespan)
}
