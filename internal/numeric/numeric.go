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

// NotPositiveDefiniteError reports a nonpositive pivot during factorization.
type NotPositiveDefiniteError struct {
	Column int
	Pivot  float64
}

func (e *NotPositiveDefiniteError) Error() string {
	return fmt.Sprintf("numeric: nonpositive pivot %g at column %d", e.Pivot, e.Column)
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
// FactorizeLDL's for KernelLDL. It is ScatterA, then Column for every
// column in turn; the two kernels differ only in the D[k] factor of an
// update and in the pivot (rule, square root).
func (k Kernel) Factorize(m *sparse.Matrix, f *symbolic.Factor) ([]float64, error) {
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
	for j := 0; j < f.N; j++ {
		if d, ok := k.Column(f, val, w, j); !ok {
			if k == KernelLDL {
				return nil, fmt.Errorf("numeric: unusable pivot %g at column %d (want finite nonzero)", d, j)
			}
			return nil, &NotPositiveDefiniteError{Column: j, Pivot: d}
		}
	}
	return val, nil
}

// LowerSolve solves L*y = b and returns y in a fresh slice.
func (c *Cholesky) LowerSolve(b []float64) []float64 {
	y := append([]float64(nil), b...)
	KernelCholesky.lower(c.F, c.Val, y)
	return y
}

// UpperSolve solves Lᵀ*x = y and returns x in a fresh slice.
func (c *Cholesky) UpperSolve(y []float64) []float64 {
	x := append([]float64(nil), y...)
	KernelCholesky.upper(c.F, c.Val, x)
	return x
}

// Solve solves A*x = b for the matrix that was factorized.
func (c *Cholesky) Solve(b []float64) []float64 {
	x := append([]float64(nil), b...)
	KernelCholesky.Solve(c.F, c.Val, x)
	return x
}

// L returns the factor as a lower-triangular sparse matrix with values.
func (c *Cholesky) L() *sparse.Matrix {
	return &sparse.Matrix{
		N:      c.F.N,
		ColPtr: append([]int(nil), c.F.ColPtr...),
		RowInd: append([]int(nil), c.F.RowInd...),
		Val:    append([]float64(nil), c.Val...),
	}
}

// MatVec computes y = A*x for the full symmetric matrix stored as its
// lower triangle.
func MatVec(m *sparse.Matrix, x []float64) []float64 {
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
	ax := MatVec(m, x)
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

// FactorResidual returns max |(L·Lᵀ − A)[i][j]| over the structure of A,
// used to validate factorizations in tests.
func FactorResidual(m *sparse.Matrix, c *Cholesky) float64 {
	// Compute (L Lᵀ)[i][j] for every stored position of A.
	// For position (i, j): sum over k <= j of L[i][k]*L[j][k].
	// Using column access of L: iterate columns k, and for each pair of
	// entries (i, k), (j, k) accumulate into a map keyed by A's positions.
	n := m.N
	// Map from (i,j) to accumulated value, restricted to A's pattern.
	acc := make(map[[2]int]float64, m.NNZ())
	for j := 0; j < n; j++ {
		for _, i := range m.Col(j) {
			acc[[2]int{i, j}] = 0
		}
	}
	for k := 0; k < n; k++ {
		col := c.F.Col(k)
		base := c.F.ColPtr[k]
		for a := 0; a < len(col); a++ {
			for b := a; b < len(col); b++ {
				key := [2]int{col[b], col[a]}
				if _, ok := acc[key]; ok {
					acc[key] += c.Val[base+a] * c.Val[base+b]
				}
			}
		}
	}
	var worst float64
	for j := 0; j < n; j++ {
		cj := m.Col(j)
		vj := m.ColVal(j)
		for k, i := range cj {
			d := math.Abs(acc[[2]int{i, j}] - vj[k])
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}
