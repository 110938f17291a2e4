package numeric

import (
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
	val, err := KernelLDL.Factorize(m, f)
	if err != nil {
		return nil, err
	}
	return &LDL{F: f, Val: val}, nil
}

// Solve solves A·x = b using the computed factorization: L·z = b,
// w = D⁻¹·z, Lᵀ·x = w.
func (l *LDL) Solve(b []float64) []float64 {
	x := append([]float64(nil), b...)
	KernelLDL.Solve(l.F, l.Val, x)
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
