package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/exec"
	"repro/internal/numeric"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// errNoValues reports a values-stage operation on a pattern-only matrix.
var errNoValues = errors.New("pipeline: matrix has no values")

// Kernel selects the numeric factorization kernel of a Factor; it is
// numeric's enum under the names this package has always exported.
type Kernel = numeric.Kernel

const (
	// Cholesky is A = L·Lᵀ (symmetric positive definite).
	Cholesky = numeric.KernelCholesky
	// LDL is the square-root-free A = L·D·Lᵀ (symmetric indefinite).
	LDL = numeric.KernelLDL
)

// Factor is the numeric-stage artifact: factor values over a symbolic
// structure, carrying the Plan it was built from. Its solve methods never
// re-factorize — holding a Factor means factorization work is done.
type Factor struct {
	Plan   *Plan
	Kernel Kernel
	// F is the structure Val aligns with: the analysis factor, or the
	// zero-padded superset structure of a relaxed block plan factored in
	// parallel.
	F   *symbolic.Factor
	Val []float64
	// Key content-addresses this artifact by (pattern, ordering, values,
	// kernel): serial and parallel factors are bit-identical and share one
	// key. A parallel factor over a relaxed structure adds the plan.
	Key artifact.Key
}

// FactorKey returns the content address of the Factor that Factorize
// (parallel=false) or FactorizeParallel (parallel=true) would build from
// this plan and a's values, without factorizing. The two share one key:
// the compiled engine applies every column's updates in the serial
// kernel's order (ascending source column, the factor's row index) over
// the same structure, so the factors are bit-for-bit interchangeable. The
// one exception is a relaxed block plan, whose parallel factor lives on the
// plan's zero-padded structure, its schedule's F: its key mixes in the plan.
func (pl *Plan) FactorKey(k Kernel, a *sparse.Matrix, parallel bool) artifact.Key {
	h := artifact.NewHasher("factor")
	h.Key(pl.An.Key)
	h.Str(k.String())
	h.Key(artifact.Key{Kind: "values", Sum: artifact.ValuesSum(a)})
	if parallel && pl.S1 != nil && pl.S1.F != pl.An.F {
		h.Key(pl.Key)
	}
	return h.Sum()
}

// Factorize computes the numeric factor of a — a matrix with this
// analysis' pattern — with the serial left-looking kernel. The values are
// bit-for-bit what numeric.Factorize/FactorizeLDL produce on
// An.PermutedWithValues(a).
func (pl *Plan) Factorize(a *sparse.Matrix, k Kernel) (*Factor, error) {
	if err := k.Valid(); err != nil {
		return nil, err
	}
	return pl.factor(a, k, false, pl.FactorKey(k, a, false))
}

// FactorizeParallel computes the numeric factor with one worker goroutine
// per processor of the plan, running the plan's compiled
// exact-serial-order program: bit-identical to Factorize, or — for a
// relaxed block plan — to the serial kernel over the plan's zero-padded
// structure.
func (pl *Plan) FactorizeParallel(a *sparse.Matrix, k Kernel) (*Factor, error) {
	if err := k.Valid(); err != nil {
		return nil, err
	}
	return pl.factor(a, k, true, pl.FactorKey(k, a, true))
}

// factor builds the Factor of a under a valid kernel k; key is its
// FactorKey, which the caller has already computed (one pass over the
// values per build, not one per layer).
func (pl *Plan) factor(a *sparse.Matrix, k Kernel, parallel bool, key artifact.Key) (*Factor, error) {
	pm, err := pl.An.PermutedWithValues(a)
	if err != nil {
		return nil, err
	}
	if !parallel {
		val, err := k.Factorize(pm, pl.An.F)
		if err != nil {
			return nil, err
		}
		return &Factor{Plan: pl, Kernel: k, F: pl.An.F, Val: val, Key: key}, nil
	}
	nf, err := pl.runParallel(pm, k)
	if err != nil {
		return nil, err
	}
	return &Factor{Plan: pl, Kernel: k, F: nf.F, Val: nf.Val, Key: key}, nil
}

func (pl *Plan) runParallel(pm *sparse.Matrix, k Kernel) (*exec.NumericFactor, error) {
	pg, err := pl.program()
	if err != nil {
		return nil, err
	}
	nf, _, err := pg.Run(pm, k, false)
	return nf, err
}

// solve is the body of every solve method: b, checked, is permuted into
// elimination order, sweep overwrites that copy with the solution, and the
// solution is mapped back to the original variable order.
func (fa *Factor) solve(b []float64, sweep func(pb []float64) error) ([]float64, error) {
	if len(b) != fa.F.N {
		return nil, fmt.Errorf("pipeline: rhs length %d, want %d", len(b), fa.F.N)
	}
	pb, x := make([]float64, len(b)), make([]float64, len(b))
	for k, old := range fa.Plan.An.Perm {
		pb[k] = b[old]
	}
	if err := sweep(pb); err != nil {
		return nil, err
	}
	for k, old := range fa.Plan.An.Perm {
		x[old] = pb[k]
	}
	return x, nil
}

// serial is the sweep of Solve: the kernel's serial triangular solves.
func (fa *Factor) serial(pb []float64) error {
	fa.Kernel.Solve(fa.F, fa.Val, pb)
	return nil
}

// Solve solves A·x = b in the original variable order with the serial
// triangular sweeps. It performs no factorization work: the factor values
// are already held. For serial-kernel factors the result is bit-for-bit
// the serial kernel's sweeps wrapped in the analysis permutation.
func (fa *Factor) Solve(b []float64) ([]float64, error) { return fa.solve(b, fa.serial) }

// SolveBatch solves one system per right-hand side. It cuts the batch
// into groups of numeric.SolveWidth (eight) and carries each group through
// one 8-wide pair of sweeps (numeric.Kernel.SolveWide), so every factor
// nonzero is loaded once per group rather than once per rhs; the
// len(bs) mod 8 rhs left over go through Solve. Workers, at most
// GOMAXPROCS and one per group, claim groups off one counter. Each
// solution is bit-for-bit Solve's on that rhs alone.
func (fa *Factor) SolveBatch(bs [][]float64) ([][]float64, error) {
	for i, b := range bs {
		if len(b) != fa.F.N {
			return nil, fmt.Errorf("pipeline: rhs %d length %d, want %d", i, len(b), fa.F.N)
		}
	}
	const w = numeric.SolveWidth
	xs := make([][]float64, len(bs))
	groups := len(bs) / w
	var next atomic.Int64
	var wg sync.WaitGroup
	claim := func() {
		defer wg.Done()
		var panel []float64
		for g := int(next.Add(1) - 1); g < groups; g = int(next.Add(1) - 1) {
			if panel == nil {
				panel = make([]float64, fa.F.N*w)
			}
			fa.sweepGroup(bs[g*w:(g+1)*w], xs[g*w:(g+1)*w], panel)
		}
	}
	for range min(runtime.GOMAXPROCS(0), groups) - 1 {
		wg.Add(1)
		//repro:allow nondeterminism -- groups claimed off a counter, each writing only its own xs slots; every solution is the 8-wide sweep of its own rhs whichever goroutine claims it, and TestSolveBatchBitIdentical pins each against the serial Solve
		go claim()
	}
	wg.Add(1)
	claim()
	for i := groups * w; i < len(bs); i++ {
		xs[i], _ = fa.Solve(bs[i]) // the lengths are checked
	}
	wg.Wait()
	return xs, nil
}

// sweepGroup solves the numeric.SolveWidth systems bs into xs on one
// panel: the right-hand sides are gathered through the analysis
// permutation, swept together and scattered back.
func (fa *Factor) sweepGroup(bs, xs [][]float64, panel []float64) {
	const w = numeric.SolveWidth
	perm := fa.Plan.An.Perm
	for k, old := range perm {
		row := (*[w]float64)(panel[k*w:])
		for r, b := range bs {
			row[r] = b[old]
		}
	}
	fa.Kernel.SolveWide(fa.F, fa.Val, panel)
	for r := range xs {
		xs[r] = make([]float64, len(perm))
	}
	for k, old := range perm {
		row := (*[w]float64)(panel[k*w:])
		for r, x := range xs {
			x[old] = row[r]
		}
	}
}

// SolveParallel solves A·x = b with the plan's compiled parallel sweeps
// (exec.SolveProgram: independent elimination-tree subtrees side by side
// on the plan's P workers, their common ancestors serially), for either
// kernel. Like Solve it never re-factorizes, and the result is bit-for-bit
// Solve's: every component is summed in the serial order.
func (fa *Factor) SolveParallel(b []float64) ([]float64, error) {
	sp, err := fa.Plan.solveProgram(fa.F)
	if err != nil {
		return nil, err
	}
	return fa.solve(b, func(pb []float64) error { return sp.Run(fa.Kernel, fa.Val, pb) })
}
