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
// over f ((*Cholesky).Solve or (*LDL).Solve).
func (k Kernel) Solve(f *symbolic.Factor, val, b []float64) []float64 {
	if k == KernelLDL {
		return (&LDL{F: f, Val: val}).Solve(b)
	}
	return (&Cholesky{F: f, Val: val}).Solve(b)
}
