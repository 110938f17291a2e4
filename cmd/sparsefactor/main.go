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
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sparsefactor: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		matrix = fs.String("matrix", "LAP30", "test matrix name (BUS1138, CANN1072, DWT512, LAP30, LSHP1009)")
		hbFile = fs.String("hb", "", "read the matrix from a Harwell-Boeing file instead")
		procs  = fs.Int("procs", 16, "number of processors")
		grain  = fs.Int("grain", 4, "grain size g (min elements per unit block)")
		width  = fs.Int("width", 4, "minimum cluster width")
		scheme = fs.String("scheme", "both", "mapping scheme: block, wrap, or both")
		alloc  = fs.String("alloc", "paper", "block allocator: paper (Section 3.4) or greedy (work-aware)")
		relax  = fs.Float64("relax", 0, "cluster relaxation: allowed zero fraction (0 disables)")
		solve  = fs.Bool("solve", false, "also run a numeric solve and report the residual")
	)
	fs.Parse(args)
	for _, f := range []struct {
		name, value string
		accepted    []string
	}{
		{"scheme", *scheme, []string{"block", "wrap", "both"}},
		{"alloc", *alloc, []string{"paper", "greedy"}},
	} {
		if !slices.Contains(f.accepted, f.value) {
			return fmt.Errorf("unknown -%s %q (accepted: %s)", f.name, f.value, strings.Join(f.accepted, ", "))
		}
	}

	var m *repro.Matrix
	name := *matrix
	if *hbFile != "" {
		f, err := os.Open(*hbFile)
		if err != nil {
			return err
		}
		var hdr repro.HBHeader
		m, hdr, err = repro.ReadHB(f)
		f.Close()
		if err != nil {
			return err
		}
		name = hdr.Key
	} else {
		var err error
		m, _, err = repro.BuildMatrix(*matrix)
		if err != nil {
			return err
		}
	}

	an, err := repro.AnalyzePattern(m)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: n=%d nnz(A)=%d nnz(L)=%d total work=%d\n",
		name, m.N, m.NNZ(), an.F.NNZ(), an.Total)

	// report prints the paper's two metrics and the dependency-delay
	// simulation of one mapped plan.
	report := func(pl *repro.Plan) {
		tr, sc, mk := pl.Traffic(), pl.S1, pl.Makespan()
		fmt.Fprintf(stdout, "  traffic: total=%d mean/proc=%.0f max/proc=%d partners/proc=%.1f\n",
			tr.Total, tr.Mean(), tr.MaxPerProc(), tr.MeanPartners())
		fmt.Fprintf(stdout, "  balance: A=%.3f efficiency bound=%.3f\n", sc.Imbalance(), sc.Efficiency())
		fmt.Fprintf(stdout, "  delays:  makespan=%d efficiency=%.3f idle=%.1f%%\n",
			mk.Makespan, mk.Efficiency, mk.IdlePct())
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
			return err
		}
		part := an.Sys().Partition(opts.Part)
		fmt.Fprintf(stdout, "\nblock mapping (g=%d, width=%d, P=%d, alloc=%s): %d unit blocks\n",
			*grain, *width, *procs, *alloc, len(part.Units))
		if part.Relax.Merges > 0 {
			fmt.Fprintf(stdout, "  relaxation: %v\n", part.Relax)
		}
		report(pl)
	}
	if *scheme == "wrap" || *scheme == "both" {
		pl, err := an.Plan("wrap", *procs, repro.StrategyOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrap mapping (P=%d):\n", *procs)
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
			return err
		}
		cold := time.Since(start)
		start = time.Now()
		if _, err := cache.Solve(m, "wrap", *procs, opts, repro.KernelCholesky, b); err != nil {
			return err
		}
		warm := time.Since(start)
		st := cache.Stats()
		fmt.Fprintf(stdout, "\nsolve: residual=%.3g\n", repro.ResidualNorm(m, x, b))
		fmt.Fprintf(stdout, "  staged cache: cold=%v warm=%v (%.1fx) hits=%d misses=%d\n",
			cold, warm, float64(cold)/float64(max(warm.Nanoseconds(), 1)), st.Hits, st.Misses)
	}
	return nil
}
