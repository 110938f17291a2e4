// Command spy renders ASCII spy plots of a test matrix and of its filled
// factor with cluster boundaries — the textual reproduction of the paper's
// Figure 2.
//
// Usage:
//
//	spy -matrix fegrid5           # the paper's 41x41 Figure 2 example
//	spy -matrix LAP30 -max 60     # downsampled plot of a suite matrix
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spy: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		matrix = fs.String("matrix", "fegrid5", "matrix name (fegrid5 or a suite name)")
		maxDim = fs.Int("max", 0, "downsample plots to at most this many rows (0 = full)")
		width  = fs.Int("width", 4, "minimum cluster width for the cluster overlay")
		grain  = fs.Int("grain", 4, "grain size for the partition summary")
	)
	fs.Parse(args)

	var m *repro.Matrix
	if strings.EqualFold(*matrix, "fegrid5") {
		m = repro.FEGrid5(5)
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
	fmt.Fprintf(stdout, "%s: n=%d, nnz(A)=%d, nnz(L)=%d after MMD ordering\n\n",
		*matrix, m.N, m.NNZ(), an.F.NNZ())

	part := an.Sys().Partition(repro.PartitionOptions{Grain: *grain, MinClusterWidth: *width})
	filled := an.F.Pattern()
	if *maxDim > 0 && m.N > *maxDim {
		fmt.Fprintln(stdout, "filled matrix (downsampled):")
		fmt.Fprintln(stdout, filled.Spy(*maxDim))
	} else {
		var bounds []int
		for _, cl := range part.Clusters {
			bounds = append(bounds, cl.ColHi+1)
		}
		fmt.Fprintln(stdout, "filled matrix with cluster boundaries ('|'):")
		fmt.Fprintln(stdout, filled.SpyWithBoundaries(bounds))
	}

	multi, single := 0, 0
	for _, cl := range part.Clusters {
		if cl.Single {
			single++
		} else {
			multi++
		}
	}
	fmt.Fprintf(stdout, "clusters: %d multi-column, %d single-column; %d unit blocks (g=%d, width=%d)\n",
		multi, single, len(part.Units), *grain, *width)
	for _, cl := range part.Clusters {
		if cl.Single {
			continue
		}
		fmt.Fprintf(stdout, "  cluster cols %d..%d: triangle in %d bands, %d rectangles below\n",
			cl.ColLo, cl.ColHi, len(cl.TriUnits), len(cl.Rects))
	}
	return nil
}
