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
	"log"
	"strings"

	"repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spy: ")
	var (
		matrix = flag.String("matrix", "fegrid5", "matrix name (fegrid5 or a suite name)")
		maxDim = flag.Int("max", 0, "downsample plots to at most this many rows (0 = full)")
		width  = flag.Int("width", 4, "minimum cluster width for the cluster overlay")
		grain  = flag.Int("grain", 4, "grain size for the partition summary")
	)
	flag.Parse()

	var m *repro.Matrix
	if strings.EqualFold(*matrix, "fegrid5") {
		m = repro.FEGrid5(5)
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
	fmt.Printf("%s: n=%d, nnz(A)=%d, nnz(L)=%d after MMD ordering\n\n",
		*matrix, m.N, m.NNZ(), an.F.NNZ())

	part := an.Sys().Partition(repro.PartitionOptions{Grain: *grain, MinClusterWidth: *width})
	filled := an.F.Pattern()
	if *maxDim > 0 && m.N > *maxDim {
		fmt.Println("filled matrix (downsampled):")
		fmt.Println(filled.Spy(*maxDim))
	} else {
		var bounds []int
		for _, cl := range part.Clusters {
			bounds = append(bounds, cl.ColHi+1)
		}
		fmt.Println("filled matrix with cluster boundaries ('|'):")
		fmt.Println(filled.SpyWithBoundaries(bounds))
	}

	multi, single := 0, 0
	for _, cl := range part.Clusters {
		if cl.Single {
			single++
		} else {
			multi++
		}
	}
	fmt.Printf("clusters: %d multi-column, %d single-column; %d unit blocks (g=%d, width=%d)\n",
		multi, single, len(part.Units), *grain, *width)
	for _, cl := range part.Clusters {
		if cl.Single {
			continue
		}
		fmt.Printf("  cluster cols %d..%d: triangle in %d bands, %d rectangles below\n",
			cl.ColLo, cl.ColHi, len(cl.TriUnits), len(cl.Rects))
	}
}
