// Trade-off study: the communication / load-balance tension that is the
// paper's central observation, swept over grain size and cluster width.
//
// For LAP30 on 16 processors the program traces how growing the grain size
// cuts data traffic (blocks re-use fetched data) while the load imbalance
// factor A climbs (fewer, larger schedulable units), and how the minimum
// cluster width moves the same trade-off (Table 4). The wrap-mapped
// baseline anchors both ends: highest traffic, best balance.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	an, err := repro.AnalyzePattern(repro.LAP30())
	if err != nil {
		log.Fatal(err)
	}
	const procs = 16
	// plan maps LAP30 with a registered strategy at one (grain, width).
	plan := func(strategy string, g, w int) *repro.Plan {
		pl, err := an.Plan(strategy, procs, repro.StrategyOptions{
			Part: repro.PartitionOptions{Grain: g, MinClusterWidth: w},
		})
		if err != nil {
			log.Fatal(err)
		}
		return pl
	}

	wrap := plan("wrap", 0, 0)
	wt := wrap.TrafficTotal()
	fmt.Printf("LAP30, P=%d. Wrap baseline: traffic=%d, A=%.3f\n\n", procs, wt, wrap.S1.Imbalance())

	fmt.Println("grain sweep (width 4):")
	fmt.Printf("%8s %8s %10s %8s %10s\n", "grain", "units", "traffic", "A", "vs wrap")
	for _, g := range []int{2, 4, 8, 16, 25, 50, 100, 200} {
		pl := plan("block", g, 4)
		fmt.Printf("%8d %8d %10d %8.2f %9.0f%%\n",
			g, len(pl.Tasks), pl.TrafficTotal(), pl.S1.Imbalance(),
			100*float64(pl.TrafficTotal())/float64(wt))
	}

	fmt.Println("\nminimum cluster width sweep (grain 4, Table 4):")
	fmt.Printf("%8s %8s %10s %8s\n", "width", "units", "traffic", "A")
	for _, w := range []int{2, 4, 8, 16} {
		pl := plan("block", 4, w)
		fmt.Printf("%8d %8d %10d %8.2f\n", w, len(pl.Tasks), pl.TrafficTotal(), pl.S1.Imbalance())
	}

	fmt.Println("\nReading: larger grains cut traffic but concentrate work;")
	fmt.Println("the paper's conclusion is to tune g and width per application.")
}
