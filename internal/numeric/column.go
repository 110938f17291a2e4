package numeric

import (
	"fmt"
	"math"

	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// ScatterA scatters the lower-triangle values of m into factor positions:
// the returned slice is aligned with f's structure, holding A's value at
// every position in A's pattern and zero elsewhere — the starting state of
// every left-looking factorization. m's pattern must be a subset of f's
// (f is Analyze(m) or a superset); an entry outside it is an error.
func ScatterA(m *sparse.Matrix, f *symbolic.Factor) ([]float64, error) {
	val := make([]float64, f.NNZ())
	for j := 0; j < m.N; j++ {
		cj := m.Col(j)
		vj := m.ColVal(j)
		fc := f.Col(j)
		base := f.ColPtr[j]
		t := 0
		for k, i := range cj {
			for t < len(fc) && fc[t] != i {
				t++
			}
			if t == len(fc) {
				return nil, fmt.Errorf("numeric: entry (%d, %d) lies outside the factor structure", i, j)
			}
			val[base+t] = vj[k]
		}
	}
	return val, nil
}

// Column is one step of the left-looking factorization under kernel k:
// column j of val — A's values (ScatterA) on entry, every column that
// updates it final — receives its updates, pivot and scale in place; w is
// scratch of length f.N. A pivot the kernel rejects comes back with ok
// false and the column untouched: it must be finite and positive (nonzero
// for LDLᵀ) — ±Inf, an overflowed or Inf-contaminated diagonal, would
// survive the square root or divide the off-diagonals into zeros and NaNs.
func (k Kernel) Column(f *symbolic.Factor, val, w []float64, j int) (pivot float64, ok bool) {
	lo, hi := f.ColPtr[j], f.ColPtr[j+1]
	rows, col := f.RowInd[lo:hi], val[lo:hi]
	for x, i := range rows {
		w[i] = col[x]
	}
	k.update(f, val, w, j)
	d := w[j]
	if math.IsNaN(d) || math.IsInf(d, 0) || d == 0 || (k != KernelLDL && d < 0) {
		return d, false
	}
	if k != KernelLDL {
		d = math.Sqrt(d)
	}
	col[0] = d
	for x := 1; x < len(rows); x++ {
		col[x] = w[rows[x]] / d
	}
	return d, true
}

// passWidth reports how many of the sources cols[t:] of row j the update
// takes in one pass — 4, 2 or 1: consecutive entries of the row whose
// columns hold the same n rows from row j down. Column cols[t+1] being the
// elimination-tree parent of cols[t] puts every row of cols[t] below its
// diagonal in cols[t+1], so tails of equal length are equal tails.
func passWidth(f *symbolic.Factor, cols, pos []int32, t, n int) int {
	g := 1
	for g < 4 && t+g < len(cols) && f.Parent[cols[t+g-1]] == int(cols[t+g]) &&
		f.ColPtr[cols[t+g]+1]-int(pos[t+g]) == n {
		g++
	}
	if g == 3 {
		g = 2
	}
	return g
}

// update applies to w, holding column j, every pair update of the column:
// w[i] -= L[i,k]·l for each source column k of row j (symbolic.Factor.Rows)
// in ascending k and each row i >= j of column k, where l is L[j,k] for
// Cholesky and D[k]·L[j,k] for LDLᵀ. That order, one source at a time,
// defines the factor's bits; four (or two) sources with the same rows go
// through one pass, which subtracts from each element in the same order.
// This is the one unfiltered update loop: the engine's partial tasks walk
// the same index in the same order behind their row filter.
func (k Kernel) update(f *symbolic.Factor, val, w []float64, j int) {
	ri := f.Rows()
	cols, pos := ri.Cols[ri.Ptr[j]:ri.Ptr[j+1]], ri.Pos[ri.Ptr[j]:ri.Ptr[j+1]]
	// src is source t as its values from row j down and its multiplier.
	src := func(t, n int) ([]float64, float64) {
		p := int(pos[t])
		v := val[p : p+n]
		if k == KernelLDL {
			return v, val[f.ColPtr[cols[t]]] * v[0]
		}
		return v, v[0]
	}
	for t := 0; t < len(cols); {
		p := int(pos[t])
		n := f.ColPtr[cols[t]+1] - p
		rs := f.RowInd[p : p+n]
		g := passWidth(f, cols, pos, t, n)
		switch g {
		case 4:
			v0, l0 := src(t, n)
			v1, l1 := src(t+1, n)
			v2, l2 := src(t+2, n)
			v3, l3 := src(t+3, n)
			sub4(w, rs, v0, v1, v2, v3, l0, l1, l2, l3)
		case 2:
			v0, l0 := src(t, n)
			v1, l1 := src(t+1, n)
			sub2(w, rs, v0, v1, l0, l1)
		default:
			v0, l0 := src(t, n)
			sub1(w, rs, v0, l0)
		}
		t += g
	}
}

// sub4, sub2 and sub1 are the passes of update; every statement is one
// multiply and one subtract, in source order, so an architecture that fuses
// them fuses all arms alike. They are kept out of line: inlined into update
// the loops compete for registers and the counter and slice bases spill to
// the stack on every iteration (22 ms against 16 on Grid9(120,120), amd64).
//
//go:noinline
func sub4(w []float64, rs []int, v0, v1, v2, v3 []float64, l0, l1, l2, l3 float64) {
	v0, v1, v2, v3 = v0[:len(rs)], v1[:len(rs)], v2[:len(rs)], v3[:len(rs)]
	for x, i := range rs {
		s := w[i]
		s -= v0[x] * l0
		s -= v1[x] * l1
		s -= v2[x] * l2
		s -= v3[x] * l3
		w[i] = s
	}
}

//go:noinline
func sub2(w []float64, rs []int, v0, v1 []float64, l0, l1 float64) {
	v0, v1 = v0[:len(rs)], v1[:len(rs)]
	for x, i := range rs {
		s := w[i]
		s -= v0[x] * l0
		s -= v1[x] * l1
		w[i] = s
	}
}

//go:noinline
func sub1(w []float64, rs []int, v0 []float64, l0 float64) {
	v0 = v0[:len(rs)]
	for x, i := range rs {
		w[i] -= v0[x] * l0
	}
}
