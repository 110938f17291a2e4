// Inertia: eigenvalue counting with a shifted LDLᵀ factorization — a
// classical application of sparse symmetric factorization beyond solving
// linear systems, demonstrating the paper's Section 5 claim that the
// partitioning/scheduling methodology adapts to "other factoring methods".
//
// By Sylvester's law of inertia, factoring A - sigma*I = L D Lᵀ and
// counting the negative entries of D gives the number of eigenvalues of A
// below sigma. The program slices the spectrum of a 9-point Laplacian this
// way, running every factorization through the compiled block program —
// one task per unit block of the same partition and schedule used for the
// paper's experiments, with the LDLᵀ kernel.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	const rows, cols = 16, 16
	base := repro.Grid9(rows, cols)
	fmt.Printf("matrix: 9-point Laplacian on %dx%d grid (n=%d)\n", rows, cols, base.N)
	fmt.Println("counting eigenvalues below sigma via the inertia of A - sigma*I:")
	fmt.Printf("\n%10s %22s\n", "sigma", "eigenvalues < sigma")

	// Shifting the diagonal never changes the sparsity pattern, so the
	// analysis and the plan — the same partition/schedule machinery as the
	// paper's experiments — are built once and every shift only re-runs
	// the numeric stage.
	an, err := repro.AnalyzePattern(base)
	if err != nil {
		log.Fatal(err)
	}
	pl, err := an.Plan("block", 8, repro.StrategyOptions{
		Part: repro.PartitionOptions{Grain: 16, MinClusterWidth: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Non-integer shifts avoid the exactly-integer diagonal entries of the
	// shifted Laplacian (an exact zero pivot stops LDL^T).
	for _, sigma := range []float64{0.5, 1.3, 2.7, 4.6, 8.3, 12.1, 15.7} {
		// Shift the diagonal: A - sigma*I.
		shifted := base.Clone()
		for j := 0; j < shifted.N; j++ {
			shifted.Val[shifted.ColPtr[j]] -= sigma
		}
		// Run the factorization through the plan's compiled block program.
		fa, err := pl.FactorizeParallel(shifted, repro.KernelLDL)
		if err != nil {
			log.Fatalf("sigma=%g: %v (pivot hit zero: pick a different shift)", sigma, err)
		}
		neg := 0
		for j := 0; j < fa.F.N; j++ {
			if fa.Val[fa.F.ColPtr[j]] < 0 {
				neg++
			}
		}
		fmt.Printf("%10.2f %22d\n", sigma, neg)
	}

	fmt.Println("\nEach count is the exact number of eigenvalues below the shift;")
	fmt.Println("bisection on sigma brackets individual eigenvalues.")
}
