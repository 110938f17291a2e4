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
// Kernel.Factorize, the serial kernel, is segment over each column of a
// narrow supernode. A supernode chain of at least chunkMin columns whose
// first column holds at least chunkRows rows it factors eight columns at
// a time (chunk.go, the supernode–supernode update of Ng and Peyton): an
// interleaved accumulator holds the chunk's columns as the lanes of one
// 64-byte line a row, and each source below the chunk, found per run
// range of the chunk's rows, is loaded once for all of them: four
// sources of a run through sub8x4, one through sub8, or under a mask of
// the lanes a source holds, which leaves the others' bits, through sub8x4
// and sub8m. Every element still takes its sources in ascending column, one
// rounded product and one subtraction each, so the factor is segment's
// bit for bit, and the engine's tasks, which stay on Step, keep it.
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
// returns the values aligned with f: Factorize's for KernelCholesky,
// FactorizeLDL's for KernelLDL. It is ScatterA, then every column in
// turn, whose rejected pivot is the error: a supernode chain of at least
// chunkMin columns and chunkRows rows eight columns at a time (chunk),
// every other column through segment. The two kernels differ only in the
// D[k] factor of an update and in the pivot (rule, square root).
func (k Kernel) Factorize(m *sparse.Matrix, f *symbolic.Factor) ([]float64, error) {
	return k.factorize(m, f, chunkRows)
}

// factorize is Factorize with chunks of chains whose first column holds
// at least rows rows; the factor's bits do not depend on it.
func (k Kernel) factorize(m *sparse.Matrix, f *symbolic.Factor, rows int) ([]float64, error) {
	if err := k.Valid(); err != nil {
		return nil, err
	}
	if m.Val == nil {
		return nil, fmt.Errorf("numeric: matrix has no values")
	}
	if m.N != f.N {
		return nil, fmt.Errorf("numeric: dimension mismatch %d vs %d", m.N, f.N)
	}
	val, err := ScatterA(m, f)
	if err != nil {
		return nil, err
	}
	w := make([]float64, f.N) // dense accumulator for the current column
	var x []float64           // and for the current chunk, chunkLanes a row
	var src []srcRange
	for j := 0; j < f.N; {
		cw := 1
		if f.ColLen(j) >= rows {
			cw = chunkWidth(f, j)
		}
		if cw >= chunkMin {
			if x == nil {
				x = make([]float64, f.N*chunkLanes)
			}
			src = chunkSources(f.Rows(), j, cw, src[:0])
			if err := k.chunk(m, f, val, x, src, j, cw); err != nil {
				return nil, err
			}
			j += cw
			continue
		}
		if err := k.segment(f, val, w, j, f.ColPtr[j], f.ColPtr[j+1]); err != nil {
			return nil, err
		}
		j++
	}
	return val, nil
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
