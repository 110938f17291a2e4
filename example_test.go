package repro_test

import (
	"fmt"

	"repro"
)

// The pattern stage: ordering, symbolic factorization and the work model.
func ExampleAnalyzePattern() {
	a := repro.LAP30()
	an, err := repro.AnalyzePattern(a)
	if err != nil {
		panic(err)
	}
	fmt.Println("equations:", a.N)
	fmt.Println("factor nonzeros:", an.F.NNZ())
	fmt.Println("total work:", an.Total)
	// Output:
	// equations: 900
	// factor nonzeros: 16829
	// total work: 433583
}

// Comparing the paper's two mapping schemes on the same matrix.
func ExamplePlan_Traffic() {
	an, err := repro.AnalyzePattern(repro.LAP30())
	if err != nil {
		panic(err)
	}
	opts := repro.StrategyOptions{Part: repro.PartitionOptions{Grain: 25, MinClusterWidth: 4}}
	block, err := an.Plan("block", 16, opts)
	if err != nil {
		panic(err)
	}
	wrap, err := an.Plan("wrap", 16, opts)
	if err != nil {
		panic(err)
	}
	fmt.Println("block beats wrap:", block.Traffic().Total < wrap.Traffic().Total)
	// Output:
	// block beats wrap: true
}

// Solving a linear system end to end (ordering and permutation handled
// by the artifacts; x is returned in the original variable order).
func ExampleFactor_Solve() {
	a := repro.Grid5(8, 8)
	an, err := repro.AnalyzePattern(a)
	if err != nil {
		panic(err)
	}
	pl, err := an.Plan("wrap", 4, repro.StrategyOptions{})
	if err != nil {
		panic(err)
	}
	fa, err := pl.Factorize(a, repro.KernelCholesky)
	if err != nil {
		panic(err)
	}
	b := make([]float64, 64)
	b[0] = 1
	x, err := fa.Solve(b)
	if err != nil {
		panic(err)
	}
	fmt.Printf("residual below 1e-10: %v\n", repro.ResidualNorm(a, x, b) < 1e-10)
	// Output:
	// residual below 1e-10: true
}

// Inspecting the partitioner's clusters and unit blocks.
func ExamplePartition() {
	a := repro.FEGrid5(5) // the paper's Figure 2 matrix
	an, err := repro.AnalyzePattern(a)
	if err != nil {
		panic(err)
	}
	part := an.Sys().Partition(repro.PartitionOptions{Grain: 4, MinClusterWidth: 2})
	multi := 0
	for _, cl := range part.Clusters {
		if !cl.Single {
			multi++
		}
	}
	fmt.Println("41 unknowns:", a.N == 41)
	fmt.Println("has multi-column clusters:", multi > 0)
	// Output:
	// 41 unknowns: true
	// has multi-column clusters: true
}

// The load imbalance factor A of the paper's Section 4.
func ExampleSchedule() {
	an, err := repro.AnalyzePattern(repro.LAP30())
	if err != nil {
		panic(err)
	}
	wrap, err := an.Plan("wrap", 1, repro.StrategyOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("A on one processor:", wrap.S1.Imbalance())
	fmt.Println("efficiency:", wrap.S1.Efficiency())
	// Output:
	// A on one processor: 0
	// efficiency: 1
}
