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
// on return. It is Forward over every whole column, ascending, then
// Backward over every column, descending; (*Cholesky).Solve and
// (*LDL).Solve are this on a copy, and exec.SolveProgram runs the same
// two bodies over its cut of the elimination tree.
func (k Kernel) Solve(f *symbolic.Factor, val, x []float64) {
	for j := 0; j < f.N; j++ {
		k.Forward(f, val, x, j, f.ColPtr[j], f.ColPtr[j+1])
	}
	for j := f.N - 1; j >= 0; j-- {
		k.Backward(f, val, x, j)
	}
}

// Forward applies positions [lo, hi) of column j, lo < hi, to the sweep
// L·y = b in x: a part that holds the diagonal finishes y[j] (Cholesky
// divides it by the diagonal; LDLᵀ's L has a unit diagonal, the position
// holds D and y[j] stays), and every other position updates a later
// component, x[i] -= L[i,j]·y[j]. Columns applied whole in ascending
// order leave y in x; a column cut into parts, the diagonal's first, gets
// the whole column's bits.
func (k Kernel) Forward(f *symbolic.Factor, val, x []float64, j, lo, hi int) {
	if lo == f.ColPtr[j] {
		if k != KernelLDL {
			x[j] /= val[lo]
		}
		lo++
	}
	xj := x[j]
	rs, vs := f.RowInd[lo:hi], val[lo:hi]
	for q, i := range rs {
		x[i] -= vs[q] * xj
	}
}

// Backward finishes x[j], holding y[j], from its ancestors' finished
// components: the row j of Lᵀ·x = y, or for LDLᵀ of Lᵀ·x = D⁻¹·y.
// Columns applied in descending order after the forward sweep leave the
// solution in x.
func (k Kernel) Backward(f *symbolic.Factor, val, x []float64, j int) {
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

// SolveWidth is the number of right-hand sides SolveWide carries through
// one pair of sweeps.
const SolveWidth = 8

// SolveWide runs Solve on SolveWidth right-hand sides at once, in place
// and interleaved row-major: x[i*SolveWidth+r] is component i of rhs r on
// entry and of its solution on return. Each off-diagonal position's row
// index and value are loaded once for all of them, and every component
// meets Solve's operations in Solve's order, so each solution is Solve's
// bit for bit.
func (k Kernel) SolveWide(f *symbolic.Factor, val, x []float64) {
	x = x[:f.N*SolveWidth]
	for j := 0; j < f.N; j++ {
		base, end, d := f.ColPtr[j], f.ColPtr[j+1], val[f.ColPtr[j]]
		xj := (*[SolveWidth]float64)(x[j*SolveWidth:])
		if k != KernelLDL {
			div8(xj, d)
		}
		sub8Pass(x, f.RowInd[base+1:end], val[base+1:end], xj)
	}
	for j := f.N - 1; j >= 0; j-- {
		base, end, d := f.ColPtr[j], f.ColPtr[j+1], val[f.ColPtr[j]]
		xj := (*[SolveWidth]float64)(x[j*SolveWidth:])
		if k == KernelLDL {
			div8(xj, d)
		}
		dot8Pass(x, f.RowInd[base+1:end], val[base+1:end], xj)
		if k != KernelLDL {
			div8(xj, d)
		}
	}
}

// sub8Pass and dot8Pass are the passes SolveWide runs: sub8 and dot8
// below, the only path on other architectures and on amd64 CPUs without
// AVX2, or their AVX2 assembly (kernel_amd64.go), which keeps their bits.
var sub8Pass, dot8Pass = sub8, dot8

// div8 divides each of the eight components a by the diagonal value d.
func div8(a *[8]float64, d float64) {
	for r := range a {
		a[r] /= d
	}
}

// sub8 is Forward's column update on eight right-hand sides: the column's
// eight finished components a stay in registers, and row i of x takes
// x[i*8+r] -= v*a[r], as Forward's x[i] -= v*x[j].
//
//go:noinline
func sub8(x []float64, rs []int32, vs []float64, a *[8]float64) {
	a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
	vs = vs[:len(rs)]
	for q, i := range rs {
		v, y := vs[q], (*[8]float64)(x[int(i)*8:])
		y[0] -= v * a0
		y[1] -= v * a1
		y[2] -= v * a2
		y[3] -= v * a3
		y[4] -= v * a4
		y[5] -= v * a5
		y[6] -= v * a6
		y[7] -= v * a7
	}
}

// dot8 is Backward's row sum on eight right-hand sides: the eight sums a
// run side by side, each taking a[r] -= v*x[i*8+r] in Backward's order.
//
//go:noinline
func dot8(x []float64, rs []int32, vs []float64, a *[8]float64) {
	a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
	vs = vs[:len(rs)]
	for q, i := range rs {
		v, y := vs[q], (*[8]float64)(x[int(i)*8:])
		a0 -= v * y[0]
		a1 -= v * y[1]
		a2 -= v * y[2]
		a3 -= v * y[3]
		a4 -= v * y[4]
		a5 -= v * y[5]
		a6 -= v * y[6]
		a7 -= v * y[7]
	}
	a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7] = a0, a1, a2, a3, a4, a5, a6, a7
}
