// Command sparsefactor runs the full partitioning/scheduling pipeline on
// one test matrix and reports the paper's metrics: data traffic, load
// imbalance, and (beyond the paper) dependency-delay efficiency and
// communication partners.
//
// Usage:
//
//	sparsefactor -matrix LAP30 -procs 16 -grain 25 -width 4 -scheme block
//	sparsefactor -matrix CANN1072 -procs 32 -scheme wrap
//	sparsefactor -hb matrix.rsa -procs 16 -scheme both
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sparsefactor: ")
	var (
		matrix = flag.String("matrix", "LAP30", "test matrix name (BUS1138, CANN1072, DWT512, LAP30, LSHP1009)")
		hbFile = flag.String("hb", "", "read the matrix from a Harwell-Boeing file instead")
		procs  = flag.Int("procs", 16, "number of processors")
		grain  = flag.Int("grain", 4, "grain size g (min elements per unit block)")
		width  = flag.Int("width", 4, "minimum cluster width")
		scheme = flag.String("scheme", "both", "mapping scheme: block, wrap, or both")
		alloc  = flag.String("alloc", "paper", "block allocator: paper (Section 3.4) or greedy (work-aware)")
		relax  = flag.Float64("relax", 0, "cluster relaxation: allowed zero fraction (0 disables)")
		solve  = flag.Bool("solve", false, "also run a numeric solve and report the residual")
	)
	flag.Parse()

	var m *repro.Matrix
	name := *matrix
	if *hbFile != "" {
		f, err := os.Open(*hbFile)
		if err != nil {
			log.Fatal(err)
		}
		var hdr repro.HBHeader
		m, hdr, err = repro.ReadHB(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		name = hdr.Key
	} else {
		var err error
		m, _, err = repro.BuildMatrix(*matrix)
		if err != nil {
			log.Fatal(err)
		}
	}

	an, err := repro.AnalyzePattern(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: n=%d nnz(A)=%d nnz(L)=%d total work=%d\n",
		name, m.N, m.NNZ(), an.F.NNZ(), an.Total)

	// report prints the paper's two metrics and the dependency-delay
	// simulation of one mapped plan.
	report := func(pl *repro.Plan) {
		tr, sc, mk := pl.Traffic(), pl.S1, pl.Makespan()
		fmt.Printf("  traffic: total=%d mean/proc=%.0f max/proc=%d partners/proc=%.1f\n",
			tr.Total, tr.Mean(), tr.MaxPerProc(), tr.MeanPartners())
		fmt.Printf("  balance: A=%.3f efficiency bound=%.3f\n", sc.Imbalance(), sc.Efficiency())
		fmt.Printf("  delays:  makespan=%d efficiency=%.3f idle=%.1f%%\n",
			mk.Makespan, mk.Efficiency, 100*float64(mk.Idle)/float64(int64(*procs)*mk.Makespan))
	}
	if *scheme == "block" || *scheme == "both" {
		opts := repro.StrategyOptions{Part: repro.PartitionOptions{
			Grain: *grain, MinClusterWidth: *width, RelaxZeros: *relax,
		}}
		strategy := "block"
		if *alloc == "greedy" {
			strategy = "blockgreedy"
		}
		pl, err := an.Plan(strategy, *procs, opts)
		if err != nil {
			log.Fatal(err)
		}
		part := an.Sys().Partition(opts.Part)
		fmt.Printf("\nblock mapping (g=%d, width=%d, P=%d, alloc=%s): %d unit blocks\n",
			*grain, *width, *procs, *alloc, len(part.Units))
		if part.Relax.Merges > 0 {
			fmt.Printf("  relaxation: %v\n", part.Relax)
		}
		report(pl)
	}
	if *scheme == "wrap" || *scheme == "both" {
		pl, err := an.Plan("wrap", *procs, repro.StrategyOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrap mapping (P=%d):\n", *procs)
		report(pl)
	}
	if *solve {
		b := make([]float64, m.N)
		for i := range b {
			b[i] = 1
		}
		// The staged pipeline: analysis, plan and factor are built once
		// into the content-addressed cache; the repeat request hits all
		// three stages and runs only the triangular sweeps.
		cache := repro.NewCache(0)
		opts := repro.StrategyOptions{}
		start := time.Now()
		x, err := cache.Solve(m, "wrap", *procs, opts, repro.KernelCholesky, b)
		if err != nil {
			log.Fatal(err)
		}
		cold := time.Since(start)
		start = time.Now()
		if _, err := cache.Solve(m, "wrap", *procs, opts, repro.KernelCholesky, b); err != nil {
			log.Fatal(err)
		}
		warm := time.Since(start)
		st := cache.Stats()
		fmt.Printf("\nsolve: residual=%.3g\n", repro.ResidualNorm(m, x, b))
		fmt.Printf("  staged cache: cold=%v warm=%v (%.1fx) hits=%d misses=%d\n",
			cold, warm, float64(cold)/float64(max64(warm.Nanoseconds(), 1)), st.Hits, st.Misses)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
