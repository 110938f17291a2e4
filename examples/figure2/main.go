// Figure 2 reproduction: the 41x41 filled matrix of a 5-point finite
// element 5x5 grid, ordered with multiple minimum degree, with the
// partitioner's clusters marked.
//
// The paper uses this example to introduce clusters: strips of consecutive
// columns with a dense triangle at the diagonal and dense rectangles
// below. The output shows the original pattern, the filled factor with
// cluster boundaries, and the per-cluster block inventory (triangles and
// rectangles), matching the discussion of Section 3.1.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	a := repro.FEGrid5(5)
	fmt.Printf("5-point FE 5x5 grid: %d unknowns, %d lower nonzeros\n\n", a.N, a.NNZ())

	an, err := repro.AnalyzePattern(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matrix pattern (MMD-ordered):")
	fmt.Println(an.Permuted.Spy(0))

	// Identify clusters with the paper's defaults but allow narrow strips
	// (width 2) so the small example shows multi-column clusters.
	part := an.Sys().Partition(repro.PartitionOptions{Grain: 4, MinClusterWidth: 2})
	var bounds []int
	for _, cl := range part.Clusters {
		bounds = append(bounds, cl.ColHi+1)
	}
	fmt.Printf("filled matrix, %d nonzeros, cluster boundaries marked with '|':\n", an.F.NNZ())
	fmt.Println(an.F.Pattern().SpyWithBoundaries(bounds))

	fmt.Println("cluster inventory (Section 3.1):")
	for _, cl := range part.Clusters {
		if cl.Single {
			continue
		}
		fmt.Printf("  columns %2d..%2d: dense triangle (%d bands)", cl.ColLo, cl.ColHi, len(cl.TriUnits))
		if len(cl.Rects) > 0 {
			fmt.Printf(", %d dense rectangles below:", len(cl.Rects))
			for _, r := range cl.Rects {
				fmt.Printf(" rows %d..%d", r.RowLo, r.RowHi)
			}
		}
		fmt.Println()
	}
	single := 0
	for _, cl := range part.Clusters {
		if cl.Single {
			single++
		}
	}
	fmt.Printf("  plus %d single-column clusters\n", single)
}
