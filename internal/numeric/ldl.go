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
