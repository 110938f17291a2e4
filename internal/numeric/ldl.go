package numeric

import (
	"fmt"
	"math"

	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// LDL is a square-root-free factorization A = L·D·Lᵀ with unit lower
// triangular L and diagonal D. The paper's Section 5 claims the
// partitioning/scheduling methodology "can very easily be adapted to other
// factoring methods used in sparse matrix computations"; LDLᵀ has exactly
// the same element-level dependency structure as Cholesky (Figure 1), so
// the same symbolic factor, partition and schedule drive it unchanged —
// which the tests verify by running the block-parallel executor with the
// LDL kernel.
//
// Val is aligned with the symbolic structure: the diagonal position of
// column j stores D[j]; off-diagonal positions store L[i,j] (the implicit
// unit diagonal of L is not stored).
type LDL struct {
	F   *symbolic.Factor
	Val []float64
}

// FactorizeLDL computes the LDLᵀ factorization with the left-looking
// column algorithm. Unlike Cholesky it succeeds for any symmetric matrix
// whose leading minors are nonsingular (D may carry negative entries);
// a zero pivot is reported as an error.
func FactorizeLDL(m *sparse.Matrix, f *symbolic.Factor) (*LDL, error) {
	if m.Val == nil {
		return nil, fmt.Errorf("numeric: matrix has no values")
	}
	if m.N != f.N {
		return nil, fmt.Errorf("numeric: dimension mismatch %d vs %d", m.N, f.N)
	}
	n := m.N
	val := make([]float64, f.NNZ())
	w := make([]float64, n)
	ptr := make([]int, n)
	link := make([]int, n)
	nextCol := make([]int, n)
	for i := range link {
		link[i] = -1
		nextCol[i] = -1
	}
	for j := 0; j < n; j++ {
		cj := f.Col(j)
		for _, i := range cj {
			w[i] = 0
		}
		acol := m.Col(j)
		avals := m.ColVal(j)
		for k, i := range acol {
			w[i] = avals[k]
		}
		for k := link[j]; k != -1; {
			nk := nextCol[k]
			p := ptr[k]
			end := f.ColPtr[k+1]
			dk := val[f.ColPtr[k]] // D[k]
			rs, vs := f.RowInd[p:end], val[p:end]
			ljk := vs[0]
			for x, i := range rs {
				w[i] -= vs[x] * dk * ljk
			}
			ptr[k] = p + 1
			if p+1 < end {
				r := f.RowInd[p+1]
				nextCol[k] = link[r]
				link[r] = k
			}
			k = nk
		}
		// The pivot must be finite and nonzero: ±Inf (overflow in the
		// update sums) would otherwise divide the off-diagonals into
		// zeros/NaNs and silently pollute Val.
		pivot := w[j]
		if pivot == 0 || math.IsNaN(pivot) || math.IsInf(pivot, 0) {
			return nil, fmt.Errorf("numeric: unusable pivot %g at column %d (want finite nonzero)", pivot, j)
		}
		base := f.ColPtr[j]
		val[base] = pivot
		vs := val[base+1 : f.ColPtr[j+1]]
		for x, i := range cj[1:] {
			vs[x] = w[i] / pivot
		}
		if f.ColPtr[j+1] > base+1 {
			ptr[j] = base + 1
			r := f.RowInd[base+1]
			nextCol[j] = link[r]
			link[r] = j
		}
	}
	return &LDL{F: f, Val: val}, nil
}

// Solve solves A·x = b using the computed factorization: L·z = b,
// w = D⁻¹·z, Lᵀ·x = w.
func (l *LDL) Solve(b []float64) []float64 {
	n := l.F.N
	x := append([]float64(nil), b...)
	// Forward: L z = b (unit diagonal).
	for j := 0; j < n; j++ {
		base, end := l.F.ColPtr[j], l.F.ColPtr[j+1]
		zj := x[j]
		rs, vs := l.F.RowInd[base+1:end], l.Val[base+1:end]
		for q, i := range rs {
			x[i] -= vs[q] * zj
		}
	}
	// Diagonal.
	for j := 0; j < n; j++ {
		x[j] /= l.Val[l.F.ColPtr[j]]
	}
	// Backward: Lᵀ x = w.
	for j := n - 1; j >= 0; j-- {
		base, end := l.F.ColPtr[j], l.F.ColPtr[j+1]
		sum := x[j]
		rs, vs := l.F.RowInd[base+1:end], l.Val[base+1:end]
		for q, i := range rs {
			sum -= vs[q] * x[i]
		}
		x[j] = sum
	}
	return x
}

// D returns the diagonal of the factorization.
func (l *LDL) D() []float64 {
	d := make([]float64, l.F.N)
	for j := 0; j < l.F.N; j++ {
		d[j] = l.Val[l.F.ColPtr[j]]
	}
	return d
}

// Inertia returns the number of positive, negative and zero entries of D,
// which by Sylvester's law equals the inertia of A.
func (l *LDL) Inertia() (pos, neg, zero int) {
	for _, d := range l.D() {
		switch {
		case d > 0:
			pos++
		case d < 0:
			neg++
		default:
			zero++
		}
	}
	return
}
