package numeric

import (
	"fmt"
	"math"
	"slices"

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

// Segment is the left-looking step over positions [lo, hi) of column j,
// lo < hi — a run of the column's rows, the whole column included: the run
// receives its updates, its pivot if it holds the diagonal, and its
// scale. The sources updating the run and, for a run below the diagonal,
// the diagonal must be final; a source with no row in the run is not read
// at all, not even its multiplier. However the column is cut, its
// elements get the whole column's bits. It is Step over every source.
//
// A rejected pivot is an error and leaves the column untouched: it must
// be finite and positive (nonzero for LDLᵀ) — ±Inf, an overflowed or
// Inf-contaminated diagonal, would survive the square root or divide the
// off-diagonals into zeros and NaNs. Cholesky's is a
// *NotPositiveDefiniteError.
func (k Kernel) Segment(f *symbolic.Factor, val, w []float64, j, lo, hi int) error {
	return k.Step(f, val, w, j, lo, hi, 0, j, true)
}

// Step is Segment restricted to the sources c with from <= c < to: the run
// [lo, hi) of column j receives the updates of those sources only, each
// element still taking them in ascending c. With finish set it then takes
// its pivot and scale, as Segment does; without, it stores its partial
// sums back into its own positions, exact float64 values, and a later Step
// over the following sources resumes from them. So a column applied as
// Step(0, c, false) then Step(c, j, true) gets Segment's bits, and the
// first call reads no source at or after c, nor the diagonal.
func (k Kernel) Step(f *symbolic.Factor, val, w []float64, j, lo, hi, from, to int, finish bool) error {
	rows, col := f.RowInd[lo:hi], val[lo:hi]
	for x, i := range rows {
		w[i] = col[x]
	}
	ri := f.Rows()
	cols, pos := ri.Cols[ri.Ptr[j]:ri.Ptr[j+1]], ri.Pos[ri.Ptr[j]:ri.Ptr[j+1]]
	if from > 0 || to < j {
		a, _ := slices.BinarySearch(cols, int32(from))
		b, _ := slices.BinarySearch(cols, int32(to))
		cols, pos = cols[a:b], pos[a:b]
	}
	diag := f.ColPtr[j]
	if lo == diag && hi == f.ColPtr[j+1] {
		k.update(f, val, w, cols, pos)
	} else {
		k.updateRun(f, val, w, cols, pos, j, rows[0], rows[len(rows)-1])
	}
	if !finish {
		for x, i := range rows {
			col[x] = w[i]
		}
		return nil
	}
	d := val[diag]
	if lo == diag {
		d = w[j]
		if math.IsNaN(d) || math.IsInf(d, 0) || d == 0 || (k != KernelLDL && d < 0) {
			if k == KernelLDL {
				return fmt.Errorf("numeric: unusable pivot %g at column %d (want finite nonzero)", d, j)
			}
			return &NotPositiveDefiniteError{Column: j, Pivot: d}
		}
		if k != KernelLDL {
			d = math.Sqrt(d)
		}
		col[0] = d
		rows, col = rows[1:], col[1:]
	}
	for x, i := range rows {
		col[x] = w[i] / d
	}
	return nil
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

// update applies to w, holding column j, the pair updates of the sources
// cols, a run of row j's entries (symbolic.Factor.Rows) whose values start
// at pos: w[i] -= L[i,c]·l for each source c in ascending order and each
// row i >= j of column c, where l is L[j,c] for Cholesky and D[c]·L[j,c]
// for LDLᵀ. That order, one source at a time, defines the factor's bits;
// four (or two) sources with the same rows go through one pass, which
// subtracts from each element in the same order.
func (k Kernel) update(f *symbolic.Factor, val, w []float64, cols, pos []int32) {
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

// updateRun is update restricted to column j's rows in [rlo, rhi]: the
// same sources in the same order through the same passes, each over the
// slice of its tail in the band, found by search (an end of the band
// that is an end of the column needs none) — the band holds every row of
// struct(j) in it and struct(c) below j lies in struct(j). A source with
// no row there is not read. update keeps a loop of its own: folded into
// it, the search and its bookkeeping cost the whole-column step 3–7 %,
// even behind a loop-invariant branch.
func (k Kernel) updateRun(f *symbolic.Factor, val, w []float64, cols, pos []int32, j int, rlo, rhi int32) {
	last := f.RowInd[f.ColPtr[j+1]-1] // no source row lies below it
	// src is source t as its values from row j down, a rows in, and its
	// multiplier.
	src := func(t, a int) ([]float64, float64) {
		p := int(pos[t])
		if k == KernelLDL {
			return val[p+a:], val[f.ColPtr[cols[t]]] * val[p]
		}
		return val[p+a:], val[p]
	}
	for t := 0; t < len(cols); {
		p := int(pos[t])
		n := f.ColPtr[cols[t]+1] - p
		g := passWidth(f, cols, pos, t, n)
		rs, a := f.RowInd[p:p+n], 0
		if int(rlo) > j {
			a, _ = slices.BinarySearch(rs, rlo)
		}
		if rs = rs[a:]; rhi < last {
			b, _ := slices.BinarySearch(rs, rhi+1)
			rs = rs[:b]
		}
		switch {
		case len(rs) == 0:
		case g == 4:
			v0, l0 := src(t, a)
			v1, l1 := src(t+1, a)
			v2, l2 := src(t+2, a)
			v3, l3 := src(t+3, a)
			sub4(w, rs, v0, v1, v2, v3, l0, l1, l2, l3)
		case g == 2:
			v0, l0 := src(t, a)
			v1, l1 := src(t+1, a)
			sub2(w, rs, v0, v1, l0, l1)
		default:
			v0, l0 := src(t, a)
			sub1(w, rs, v0, l0)
		}
		t += g
	}
}

// sub4, sub2 and sub1 are the passes of update and updateRun; every
// statement is one multiply and one subtract, in source order, so an
// architecture that fuses them fuses all arms alike. They are kept out of
// line: inlined into update the loops compete for registers and the
// counter and slice bases spill to the stack on every iteration (22 ms
// against 16 on Grid9(120,120), amd64).
//
//go:noinline
func sub4(w []float64, rs []int32, v0, v1, v2, v3 []float64, l0, l1, l2, l3 float64) {
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
func sub2(w []float64, rs []int32, v0, v1 []float64, l0, l1 float64) {
	v0, v1 = v0[:len(rs)], v1[:len(rs)]
	for x, i := range rs {
		s := w[i]
		s -= v0[x] * l0
		s -= v1[x] * l1
		w[i] = s
	}
}

//go:noinline
func sub1(w []float64, rs []int32, v0 []float64, l0 float64) {
	v0 = v0[:len(rs)]
	for x, i := range rs {
		w[i] -= v0[x] * l0
	}
}
