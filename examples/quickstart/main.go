// Quickstart: the minimal end-to-end use of the repro library.
//
// It runs the paper's pipeline on LAP30 (the one test matrix this
// reproduction rebuilds exactly): MMD ordering, symbolic factorization,
// block-based partitioning, scheduling on 16 processors, and the traffic /
// load-balance simulation — then prints the comparison the paper's
// abstract summarizes: blocks cut communication, wrap wins balance.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	a := repro.LAP30()
	an, err := repro.AnalyzePattern(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LAP30: %d equations, %d nonzeros, factor has %d nonzeros\n",
		a.N, a.NNZ(), an.F.NNZ())

	const procs = 16
	opts := repro.StrategyOptions{Part: repro.PartitionOptions{Grain: 25, MinClusterWidth: 4}}
	part := an.Sys().Partition(opts.Part)
	fmt.Printf("partitioned into %d clusters, %d unit blocks\n",
		len(part.Clusters), len(part.Units))

	// A Plan is one schedule with its task graph and fetch attribution;
	// it answers both of the paper's questions itself.
	block, err := an.Plan("block", procs, opts)
	if err != nil {
		log.Fatal(err)
	}
	wrap, err := an.Plan("wrap", procs, opts)
	if err != nil {
		log.Fatal(err)
	}
	bt, wt := block.TrafficTotal(), wrap.TrafficTotal()
	bA, wA := block.S1.Imbalance(), wrap.S1.Imbalance()

	fmt.Printf("\n%-22s %12s %12s\n", "scheme", "traffic", "imbalance A")
	fmt.Printf("%-22s %12d %12.3f\n", "block (g=25, w=4)", bt, bA)
	fmt.Printf("%-22s %12d %12.3f\n", "wrap", wt, wA)
	fmt.Printf("\nblock saves %.0f%% of the communication; wrap balances %.1fx better.\n",
		100*(1-float64(bt)/float64(wt)), bA/wA)

	// The staged pipeline in one call: the cache content-addresses
	// analysis, plan and factor, so the second solve against the same
	// pattern and values hits every stage and only runs the sweeps.
	cache := repro.NewCache(0)
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	for i := 0; i < 2; i++ {
		if _, err := cache.Solve(a, "wrap", procs, repro.StrategyOptions{}, repro.KernelCholesky, b); err != nil {
			log.Fatal(err)
		}
	}
	st := cache.Stats()
	fmt.Printf("staged solve x2 through the artifact cache: hits=%d misses=%d\n",
		st.Hits, st.Misses)
}
