package numeric

import (
	"fmt"

	"repro/internal/symbolic"
)

// Kernel selects the numeric factorization: every layer that factors or
// solves under either one (the compiled engine, the parallel sweeps, the
// staged pipeline) takes this one argument.
type Kernel int

const (
	// KernelCholesky is A = L·Lᵀ (symmetric positive definite).
	KernelCholesky Kernel = iota
	// KernelLDL is the square-root-free A = L·D·Lᵀ (symmetric indefinite).
	KernelLDL
)

// String returns the kernel name ("cholesky" or "ldl").
func (k Kernel) String() string {
	switch k {
	case KernelCholesky:
		return "cholesky"
	case KernelLDL:
		return "ldl"
	}
	return fmt.Sprintf("kernel(%d)", int(k))
}

// Valid reports a value that is neither kernel as an error.
func (k Kernel) Valid() error {
	if k != KernelCholesky && k != KernelLDL {
		return fmt.Errorf("numeric: unknown kernel %d", int(k))
	}
	return nil
}

// Solve runs the serial triangular sweeps of the kernel that produced val
// over f in place: x holds the right-hand side on entry and the solution
// on return. (*Cholesky).Solve and (*LDL).Solve are this on a copy.
func (k Kernel) Solve(f *symbolic.Factor, val, x []float64) {
	k.lower(f, val, x)
	k.upper(f, val, x)
}

// lower overwrites x, holding b, with the solution of L·y = b. LDLᵀ's L
// has a unit diagonal: the diagonal positions of val hold D.
func (k Kernel) lower(f *symbolic.Factor, val, x []float64) {
	for j := 0; j < f.N; j++ {
		base, end := f.ColPtr[j], f.ColPtr[j+1]
		if k != KernelLDL {
			x[j] /= val[base]
		}
		xj := x[j]
		rs, vs := f.RowInd[base+1:end], val[base+1:end]
		for q, i := range rs {
			x[i] -= vs[q] * xj
		}
	}
}

// upper overwrites x, holding y, with the solution of Lᵀ·x = y, or for
// LDLᵀ of Lᵀ·x = D⁻¹·y.
func (k Kernel) upper(f *symbolic.Factor, val, x []float64) {
	for j := f.N - 1; j >= 0; j-- {
		base, end := f.ColPtr[j], f.ColPtr[j+1]
		sum := x[j]
		if k == KernelLDL {
			sum /= val[base]
		}
		rs, vs := f.RowInd[base+1:end], val[base+1:end]
		for q, i := range rs {
			sum -= vs[q] * x[i]
		}
		if k != KernelLDL {
			sum /= val[base]
		}
		x[j] = sum
	}
}
