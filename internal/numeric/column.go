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

// segment is the left-looking step over positions [lo, hi) of column j,
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
func (k Kernel) segment(f *symbolic.Factor, val, w []float64, j, lo, hi int) error {
	return k.Step(f, val, w, j, lo, hi, 0, j, true)
}

// Step is segment restricted to the sources c with from <= c < to: the run
// [lo, hi) of column j receives the updates of those sources only, each
// element still taking them in ascending c. With finish set it then takes
// its pivot and scale, as segment does; without, it stores its partial
// sums back into its own positions, exact float64 values, and a later Step
// over the following sources resumes from them. So a column applied as
// Step(0, c, false) then Step(c, j, true) gets segment's bits, and the
// first call reads no source at or after c, nor the diagonal.
func (k Kernel) Step(f *symbolic.Factor, val, w []float64, j, lo, hi, from, to int, finish bool) error {
	rows, col := f.RowInd[lo:hi], val[lo:hi]
	for x, i := range rows {
		w[i] = col[x]
	}
	ri := f.Rows()
	x, y := ri.RunPtr[j], ri.RunPtr[j+1]
	runs := runs{ri.Last[x:y], ri.Tail[x:y], ri.RunLen[x:y], int32(from), int32(to)}
	diag := f.ColPtr[j]
	if lo == diag && hi == f.ColPtr[j+1] {
		k.update(f, val, w, runs)
	} else {
		k.updateRun(f, val, w, runs, j, rows[0], rows[len(rows)-1])
	}
	if !finish {
		for x, i := range rows {
			col[x] = w[i]
		}
		return nil
	}
	d := val[diag]
	if lo == diag {
		var ok bool
		if d, ok = k.pivot(w[j]); !ok {
			return k.pivotError(w[j], j)
		}
		col[0] = d
		rows, col = rows[1:], col[1:]
	}
	for x, i := range rows {
		col[x] = w[i] / d
	}
	return nil
}

// pivot applies the pivot rule to a column's updated diagonal d: it
// returns what the column is scaled by, √d for Cholesky and d for LDLᵀ,
// and whether d is accepted; pivotError is the rejection (see segment).
func (k Kernel) pivot(d float64) (float64, bool) {
	if k == KernelLDL {
		return d, d != 0 && math.Abs(d) <= math.MaxFloat64
	}
	return math.Sqrt(d), d > 0 && d <= math.MaxFloat64
}

// pivotError is the error of the pivot d that pivot rejects at column j.
func (k Kernel) pivotError(d float64, j int) error {
	if k == KernelLDL {
		return fmt.Errorf("numeric: unusable pivot %g at column %d (want finite nonzero)", d, j)
	}
	return &NotPositiveDefiniteError{Column: j, Pivot: d}
}

// runs is the sources of one step: the records of row j of
// symbolic.Factor.Rows, each the columns Last−RunLen+1 to Last, clipped
// to the columns c with from <= c < to (a split column's halves).
type runs struct {
	lasts, tails []int32
	lens         []uint8
	from, to     int32
}

// at returns run x's first source and number of sources, 0 when the
// clip leaves it none, and its tail length.
func (rs runs) at(x int) (c0 int32, m, n int) {
	last := min(rs.lasts[x], rs.to-1)
	c0 = max(rs.lasts[x]-int32(rs.lens[x])+1, rs.from)
	return c0, max(int(last-c0+1), 0), int(rs.tails[x])
}

// update applies to w, holding column j, the pair updates of the sources
// of rs: w[i] -= L[i,c]·l for each source c in ascending order and each
// row i >= j of column c, where l is L[j,c] for Cholesky and D[c]·L[j,c]
// for LDLᵀ. That order, one source at a time, defines the factor's bits;
// the sources of one run hold the same rows, and go through passes of
// four, two and one, each subtracting from an element in the same order.
func (k Kernel) update(f *symbolic.Factor, val, w []float64, rs runs) {
	for x := range rs.lasts {
		c0, m, n := rs.at(x)
		if m > 0 {
			p := f.ColPtr[c0+1] - n
			k.passes(f, val, w, f.RowInd[p:p+n], c0, m, n, 0)
		}
	}
}

// updateRun is update restricted to column j's rows in [rlo, rhi]: the
// same sources in the same order through the same passes, over the slice
// of each run's tail in the band, found by one search per run (an end of
// the band that is an end of the column needs none) — the band holds every
// row of struct(j) in it and struct(c) below j lies in struct(j). A run
// with no row there is not read. update keeps a loop of its own: folded
// into it, the search and its bookkeeping cost the whole-column step
// 3–7 %, even behind a loop-invariant branch.
func (k Kernel) updateRun(f *symbolic.Factor, val, w []float64, rs runs, j int, rlo, rhi int32) {
	last := f.RowInd[f.ColPtr[j+1]-1] // no source row lies below it
	for x := range rs.lasts {
		c0, m, n := rs.at(x)
		if m == 0 {
			continue
		}
		p := f.ColPtr[c0+1] - n
		band, a := f.RowInd[p:p+n], 0
		if int(rlo) > j {
			a, _ = slices.BinarySearch(band, rlo)
		}
		if band = band[a:]; rhi < last {
			b, _ := slices.BinarySearch(band, rhi+1)
			band = band[:b]
		}
		if len(band) > 0 {
			k.passes(f, val, w, band, c0, m, n, a)
		}
	}
}

// passes subtracts from w the updates of the m sources c, c+1, … of one
// run of row j, holding n rows from row j down, over rs, the rows a
// onwards of that tail: four sources a pass, then two, then one.
func (k Kernel) passes(f *symbolic.Factor, val, w []float64, rs []int32, c int32, m, n, a int) {
	// src is source c's values from row j down, a rows in, and its
	// multiplier.
	src := func(c int32) ([]float64, float64) {
		p := f.ColPtr[c+1] - n
		if k == KernelLDL {
			return val[p+a:], val[f.ColPtr[c]] * val[p]
		}
		return val[p+a:], val[p]
	}
	for ; m >= 4; c, m = c+4, m-4 {
		v0, l0 := src(c)
		v1, l1 := src(c + 1)
		v2, l2 := src(c + 2)
		v3, l3 := src(c + 3)
		sub4(w, rs, v0, v1, v2, v3, l0, l1, l2, l3)
	}
	if m >= 2 {
		v0, l0 := src(c)
		v1, l1 := src(c + 1)
		sub2(w, rs, v0, v1, l0, l1)
		c, m = c+2, m-2
	}
	if m == 1 {
		v0, l0 := src(c)
		sub1(w, rs, v0, l0)
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
