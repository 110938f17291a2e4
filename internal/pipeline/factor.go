package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/artifact"
	"repro/internal/exec"
	"repro/internal/numeric"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// errNoValues reports a values-stage operation on a pattern-only matrix.
var errNoValues = errors.New("pipeline: matrix has no values")

// Kernel selects the numeric factorization kernel of a Factor.
type Kernel int

const (
	// Cholesky is A = L·Lᵀ (symmetric positive definite).
	Cholesky Kernel = iota
	// LDL is the square-root-free A = L·D·Lᵀ (symmetric indefinite).
	LDL
)

// String returns the kernel name ("cholesky" or "ldl").
func (k Kernel) String() string {
	switch k {
	case Cholesky:
		return "cholesky"
	case LDL:
		return "ldl"
	}
	return fmt.Sprintf("kernel(%d)", int(k))
}

func (k Kernel) valid() error {
	if k != Cholesky && k != LDL {
		return fmt.Errorf("pipeline: unknown kernel %d", int(k))
	}
	return nil
}

// Factor is the numeric-stage artifact: factor values over a symbolic
// structure, carrying the Plan it was built from. Its solve methods never
// re-factorize — holding a Factor means factorization work is done.
type Factor struct {
	Plan   *Plan
	Kernel Kernel
	// F is the structure Val aligns with: the analysis factor, or the
	// plan's relaxed partition factor when the 1D block engine ran over a
	// zero-padded superset structure.
	F   *symbolic.Factor
	Val []float64
	// Key content-addresses this artifact by (pattern, ordering, values,
	// kernel) — plus the plan for block-engine factors, whose rounding
	// depends on the partition (serial and exact-chain-order parallel
	// factors are bit-identical and share one key).
	Key artifact.Key

	solveOnce sync.Once
	solveSch  *sched.Schedule
}

// FactorKey returns the content address of the Factor that Factorize
// (parallel=false) or FactorizeParallel (parallel=true) would build from
// this plan and a's values, without factorizing. Serial factors and the
// compiled engine's factors (2D plans and column-granular 1D plans) share
// one key: the engine replays the exact serial update order
// (numeric.Chains), so they are bit-for-bit interchangeable. The 1D block engine accumulates
// updates by structure intersection — and may run over a relaxed,
// zero-padded factor — so its key mixes in the plan.
func (pl *Plan) FactorKey(k Kernel, a *sparse.Matrix, parallel bool) artifact.Key {
	h := artifact.NewHasher("factor")
	h.Key(pl.An.Key)
	h.Str(k.String())
	h.Key(artifact.Key{Kind: "values", Sum: artifact.ValuesSum(a)})
	if parallel && pl.S2 == nil && pl.S1.UnitProc != nil {
		h.Str("blockengine")
		h.Key(pl.Key)
	}
	return h.Sum()
}

// Factorize computes the numeric factor of a — a matrix with this
// analysis' pattern — with the serial left-looking kernel. The values are
// bit-for-bit what numeric.Factorize/FactorizeLDL produce on
// An.PermutedWithValues(a).
func (pl *Plan) Factorize(a *sparse.Matrix, k Kernel) (*Factor, error) {
	if err := k.valid(); err != nil {
		return nil, err
	}
	return pl.factor(a, k, false, pl.FactorKey(k, a, false))
}

// FactorizeParallel computes the numeric factor with one worker goroutine
// per processor of the plan. 2D plans and column-granular 1D plans run
// the plan's compiled exact-serial-chain-order program (bit-identical to
// Factorize); block-granular 1D plans run the unit-block engine over the
// plan's partition, which may be a relaxed superset structure.
func (pl *Plan) FactorizeParallel(a *sparse.Matrix, k Kernel) (*Factor, error) {
	if err := k.valid(); err != nil {
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
	var nf *exec.NumericFactor
	if parallel {
		nf, err = pl.runParallel(pm, k)
	} else {
		nf, err = pl.runSerial(pm, k)
	}
	if err != nil {
		return nil, err
	}
	return &Factor{Plan: pl, Kernel: k, F: nf.F, Val: nf.Val, Key: key}, nil
}

func (pl *Plan) runSerial(pm *sparse.Matrix, k Kernel) (*exec.NumericFactor, error) {
	if k == LDL {
		l, err := numeric.FactorizeLDL(pm, pl.An.F)
		if err != nil {
			return nil, err
		}
		return &exec.NumericFactor{F: l.F, Val: l.Val}, nil
	}
	c, err := numeric.Factorize(pm, pl.An.F)
	if err != nil {
		return nil, err
	}
	return &exec.NumericFactor{F: c.F, Val: c.Val}, nil
}

func (pl *Plan) runParallel(pm *sparse.Matrix, k Kernel) (*exec.NumericFactor, error) {
	pg, err := pl.program()
	if err != nil {
		return nil, err
	}
	if pg != nil {
		nf, _, err := pg.Run(pm, k == LDL, false)
		return nf, err
	}
	part := pl.An.sys.Partition(pl.Opts.Part)
	if k == LDL {
		return exec.ParallelFactorizeLDL(pm, part, pl.S1)
	}
	return exec.ParallelFactorize(pm, part, pl.S1)
}

// N returns the system dimension.
func (fa *Factor) N() int { return fa.F.N }

// permute maps a right-hand side into elimination order; unpermute maps a
// solution back.
func (fa *Factor) permute(b []float64) []float64 {
	pb := make([]float64, len(b))
	for k, old := range fa.Plan.An.Perm {
		pb[k] = b[old]
	}
	return pb
}

func (fa *Factor) unpermute(px []float64) []float64 {
	x := make([]float64, len(px))
	for k, old := range fa.Plan.An.Perm {
		x[old] = px[k]
	}
	return x
}

// solveSerial runs the serial triangular solves on a permuted rhs.
func (fa *Factor) solveSerial(pb []float64) []float64 {
	if fa.Kernel == LDL {
		return (&numeric.LDL{F: fa.F, Val: fa.Val}).Solve(pb)
	}
	return (&numeric.Cholesky{F: fa.F, Val: fa.Val}).Solve(pb)
}

// Solve solves A·x = b in the original variable order with the serial
// triangular sweeps. It performs no factorization work: the factor values
// are already held. For serial-kernel factors the result is bit-for-bit
// the serial kernel's sweeps wrapped in the analysis permutation.
func (fa *Factor) Solve(b []float64) ([]float64, error) {
	if len(b) != fa.F.N {
		return nil, fmt.Errorf("pipeline: rhs length %d, want %d", len(b), fa.F.N)
	}
	return fa.unpermute(fa.solveSerial(fa.permute(b))), nil
}

// SolveBatch solves one system per right-hand side, fanning the
// independent solves out over worker goroutines. Each solution is
// bit-for-bit identical to Solve on that rhs alone.
func (fa *Factor) SolveBatch(bs [][]float64) ([][]float64, error) {
	for i, b := range bs {
		if len(b) != fa.F.N {
			return nil, fmt.Errorf("pipeline: rhs %d length %d, want %d", i, len(b), fa.F.N)
		}
	}
	xs := make([][]float64, len(bs))
	workers := runtime.NumCPU()
	if workers > len(bs) {
		workers = len(bs)
	}
	if workers < 1 {
		workers = 1
	}
	var next int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//repro:allow nondeterminism -- each worker claims whole independent right-hand sides and writes only its own xs[i] slot; TestSolveBatchBitIdentical pins every solution against the serial Solve
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := int(next)
				next++
				mu.Unlock()
				if i >= len(bs) {
					return
				}
				xs[i] = fa.unpermute(fa.solveSerial(fa.permute(bs[i])))
			}
		}()
	}
	wg.Wait()
	return xs, nil
}

// solveSchedule derives the column-ownership schedule of the parallel
// sweeps from the plan, expanded over this factor's structure. Built once
// and reused by every SolveParallel call.
func (fa *Factor) solveSchedule() *sched.Schedule {
	fa.solveOnce.Do(func() {
		owner := fa.Plan.columnOwners()
		f := fa.F
		ep := make([]int32, f.NNZ())
		for j := 0; j < f.N; j++ {
			for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
				ep[q] = owner[j]
			}
		}
		fa.solveSch = &sched.Schedule{P: fa.Plan.P, ElemProc: ep}
	})
	return fa.solveSch
}

// SolveParallel solves A·x = b with the parallel fan-in triangular sweeps
// (one worker per processor of the plan, columns owned per the plan's
// diagonal ownership), for either kernel. Like Solve it never
// re-factorizes. The result is deterministic run to run; it differs from
// Solve only in floating-point summation order.
func (fa *Factor) SolveParallel(b []float64) ([]float64, error) {
	if len(b) != fa.F.N {
		return nil, fmt.Errorf("pipeline: rhs length %d, want %d", len(b), fa.F.N)
	}
	s := fa.solveSchedule()
	pb := fa.permute(b)
	var px []float64
	var err error
	if fa.Kernel == LDL {
		px, err = exec.ParallelSolveLDL(&numeric.LDL{F: fa.F, Val: fa.Val}, s, pb)
	} else {
		px, err = exec.ParallelSolve(&numeric.Cholesky{F: fa.F, Val: fa.Val}, s, pb)
	}
	if err != nil {
		return nil, err
	}
	return fa.unpermute(px), nil
}
