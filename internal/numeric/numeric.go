// Package numeric implements sequential sparse Cholesky factorization and
// triangular solves on top of the symbolic structure.
//
// The paper's partitioner never runs numbers — it schedules the update
// operations of Figure 1 (L[i,j] -= L[i,k]*L[j,k], then a scale by the
// square root of the diagonal). This package executes exactly those
// operations sequentially, which serves two purposes in the reproduction:
// it validates the pipeline end-to-end (the block-parallel executor in
// internal/exec must produce the same factor), and it grounds the work
// model used by the scheduler (2 units per off-diagonal pair update, 1 unit
// per diagonal update).
//
// The triangular sweeps have one body each: Kernel.Forward applies
// positions [lo, hi) of a column to L·y = b, and Kernel.Backward finishes
// one component of Lᵀ·x = y. Kernel.Solve is the two loops over them, and
// exec.SolveProgram makes the same calls over its cut of the elimination
// tree, so the serial and the parallel solves share their bits.
//
// Every factorization is a list of Step records run by one loop,
// Kernel.Step. Kernel.Factorize runs SerialSteps: column steps over narrow
// supernodes and chunk steps of up to eight columns of a long supernode
// chain (chunk.go, the supernode–supernode update of Ng and Peyton in an
// interleaved accumulator, a 64-byte line a row). Every element still
// takes its sources in ascending column, one rounded product and one
// subtraction each, so the factor is the column steps' bit for bit. The
// engine's tasks (exec.Program) run lists of column steps through the
// same loop, and its one-worker column graph runs SerialSteps itself.
//
// Kernel.SolveWide carries eight right-hand sides through one pair of
// sweeps. Its passes are sub8 and dot8 in Go, or on amd64 CPUs with AVX2
// the same passes in assembly (kernel_amd64.s), chosen once at package
// init from CPUID (leaf 1: OSXSAVE and AVX; leaf 7: AVX2) and XGETBV
// (XMM and YMM state saved by the OS); the chunks' passes are chosen the
// same way. The assembly keeps Solve's bits and the factor's: each lane
// multiplies and then subtracts, rounding the product as the Go
// statement y -= v*a does, and never fuses the two into an FMA.
package numeric

import (
	"fmt"
	"math"

	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// Cholesky is a numeric Cholesky factor: values aligned with the row
// indices of the symbolic factor structure F, so that
// A = L*Lᵀ with L lower triangular.
type Cholesky struct {
	F   *symbolic.Factor
	Val []float64
}

// NotPositiveDefiniteError reports a Cholesky pivot that is not finite
// and positive: a nonpositive one, or an infinite or NaN one from
// non-finite values.
type NotPositiveDefiniteError struct {
	Column int
	Pivot  float64
}

func (e *NotPositiveDefiniteError) Error() string {
	return fmt.Sprintf("numeric: unusable pivot %g at column %d (want finite positive)", e.Pivot, e.Column)
}

// Factorize computes the numeric Cholesky factor of m using the symbolic
// structure f (which must be Analyze(m) or a superset of the true
// structure). It implements the classical left-looking column algorithm:
// column j receives one update from every column c < j with L[j][c] != 0,
// in ascending c, then is scaled by the square root of its diagonal.
func Factorize(m *sparse.Matrix, f *symbolic.Factor) (*Cholesky, error) {
	val, err := KernelCholesky.Factorize(m, f)
	if err != nil {
		return nil, err
	}
	return &Cholesky{F: f, Val: val}, nil
}

// Factorize runs the serial left-looking factorization k selects and
// returns the values aligned with f (Factorize's for KernelCholesky,
// FactorizeLDL's for KernelLDL): ScatterA, then Step over SerialSteps,
// whose first rejected pivot is the error. The kernels differ only in the
// D[k] factor of an update and in the pivot (rule, square root).
func (k Kernel) Factorize(m *sparse.Matrix, f *symbolic.Factor) ([]float64, error) {
	if err := k.Valid(); err != nil {
		return nil, err
	}
	val, err := ScatterA(m, f)
	if err == nil {
		var acc []float64
		err = k.Step(f, val, &acc, SerialSteps(f)...)
	}
	if err != nil {
		return nil, err
	}
	return val, nil
}

// SerialSteps returns the step list Factorize and a one-worker column
// graph of the engine run over f: a supernode chain of at least chunkMin
// columns whose first holds at least chunkRows rows in chunks of up to
// chunkLanes columns, every other column as a step over all its sources.
func SerialSteps(f *symbolic.Factor) []Step { return serialSteps(f, chunkRows) }

// serialSteps is SerialSteps with chunks from chains whose first column
// holds at least rows rows; the factor's bits do not depend on it.
func serialSteps(f *symbolic.Factor, rows int) []Step {
	steps := make([]Step, 0, f.N)
	for j, w := 0, 1; j < f.N; j += w {
		w = 1
		if f.ColLen(j) >= rows {
			if w = chunkWidth(f, j); w < chunkMin {
				w = 1
			}
		}
		steps = append(steps, Step{J: int32(j), W: uint8(w), Lo: int32(f.ColPtr[j]), Hi: int32(f.ColPtr[j+w]), To: int32(j), Finish: true})
	}
	return steps
}

// Solve solves A*x = b for the matrix that was factorized.
func (c *Cholesky) Solve(b []float64) []float64 {
	x := append([]float64(nil), b...)
	KernelCholesky.Solve(c.F, c.Val, x)
	return x
}

// matVec computes y = A*x for the full symmetric matrix stored as its
// lower triangle.
func matVec(m *sparse.Matrix, x []float64) []float64 {
	y := make([]float64, m.N)
	for j := 0; j < m.N; j++ {
		cj := m.Col(j)
		vj := m.ColVal(j)
		y[j] += vj[0] * x[j]
		for k := 1; k < len(cj); k++ {
			i := cj[k]
			y[i] += vj[k] * x[j]
			y[j] += vj[k] * x[i]
		}
	}
	return y
}

// ResidualNorm returns ‖A·x − b‖∞ / ‖b‖∞ (or the absolute norm when b is
// zero), a convergence check for tests and examples.
func ResidualNorm(m *sparse.Matrix, x, b []float64) float64 {
	ax := matVec(m, x)
	var rmax, bmax float64
	for i := range b {
		r := math.Abs(ax[i] - b[i])
		if r > rmax {
			rmax = r
		}
		if a := math.Abs(b[i]); a > bmax {
			bmax = a
		}
	}
	if bmax == 0 {
		return rmax
	}
	return rmax / bmax
}
