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
// every left-looking factorization. m must have values and a pattern
// within f's (f is Analyze(m) or a superset); anything else is an error.
func ScatterA(m *sparse.Matrix, f *symbolic.Factor) ([]float64, error) {
	if m.Val == nil {
		return nil, fmt.Errorf("numeric: matrix has no values")
	}
	if m.N != f.N {
		return nil, fmt.Errorf("numeric: dimension mismatch %d vs %d", m.N, f.N)
	}
	val := make([]float64, f.NNZ())
	for j := 0; j < m.N; j++ {
		cj, vj, fc, base, t := m.Col(j), m.ColVal(j), f.Col(j), f.ColPtr[j], 0
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

// Step is one step of a left-looking factorization. A column step (W 1)
// gives positions [Lo, Hi) of column J the updates of the sources From <=
// c < To in ascending c, then with Finish its pivot, if it holds the
// diagonal, and its scale, or without it stores exact partial sums for a
// step over the next sources: however a column is cut, it gets the whole
// column's bits. A chunk step (W 2 to chunkLanes) finishes the columns J
// to J+W−1 of a supernode chain, positions [Lo, Hi) (see chunk).
type Step struct {
	J, Lo, Hi, From, To int32
	W                   uint8
	Finish              bool
}

// Step runs steps in order over val, aligned with f, each finding final
// the sources it applies and, below its column's diagonal, the diagonal; a
// column step reads no other source or position, not even a multiplier.
// acc is the caller's accumulator pair, kept across calls: n values, then
// chunk's chunkLanes a row from the first chunk step. A pivot must be
// finite and positive (nonzero for LDLᵀ; ±Inf would survive the square
// root or zero the off-diagonals): a rejected one ends the run with an
// error, a *NotPositiveDefiniteError for Cholesky, and its column as was.
func (k Kernel) Step(f *symbolic.Factor, val []float64, acc *[]float64, steps ...Step) error {
	n, ri := f.N, f.Rows()
	if len(*acc) < n {
		*acc = make([]float64, n)
	}
	var src []srcRange
	for i := range steps {
		s := &steps[i]
		j := int(s.J)
		if s.W > 1 {
			if len(*acc) < n*(1+chunkLanes) {
				*acc = make([]float64, n*(1+chunkLanes))
			}
			src = chunkSources(ri, j, int(s.W), src[:0])
			if err := k.chunk(f, val, (*acc)[n:], src, j, int(s.W)); err != nil {
				return err
			}
			continue
		}
		w := (*acc)[:n]
		rows, col := f.RowInd[s.Lo:s.Hi], val[s.Lo:s.Hi]
		for x, i := range rows {
			w[i] = col[x]
		}
		diag := f.ColPtr[j]
		if int(s.Lo) == diag && int(s.Hi) == f.ColPtr[j+1] {
			k.update(f, ri, val, w, s)
		} else {
			k.updateRun(f, ri, val, w, s)
		}
		if !s.Finish {
			for x, i := range rows {
				col[x] = w[i]
			}
			continue
		}
		d := val[diag]
		if int(s.Lo) == diag {
			var err error
			if d, err = k.pivot(w[j], j); err != nil {
				return err
			}
			col[0] = d
			rows, col = rows[1:], col[1:]
		}
		for x, i := range rows {
			col[x] = w[i] / d
		}
	}
	return nil
}

// pivot applies the pivot rule to column j's updated diagonal d: it
// returns what the column is scaled by, √d for Cholesky and d for LDLᵀ,
// or the rejection (see Step).
func (k Kernel) pivot(d float64, j int) (float64, error) {
	if k == KernelLDL {
		if d != 0 && math.Abs(d) <= math.MaxFloat64 {
			return d, nil
		}
		return 0, fmt.Errorf("numeric: unusable pivot %g at column %d (want finite nonzero)", d, j)
	}
	if d > 0 && d <= math.MaxFloat64 {
		return math.Sqrt(d), nil
	}
	return 0, &NotPositiveDefiniteError{Column: j, Pivot: d}
}

// sources returns the first of s's sources in run record x of row J (the
// columns Last−RunLen+1 to Last clipped to [From, To)), their number, 0
// when the clip leaves none, and their tail length.
func (s *Step) sources(ri *symbolic.RowIndex, x int32) (c0 int32, m, n int) {
	last := ri.Last[x]
	c0 = max(last-int32(ri.RunLen[x])+1, s.From)
	return c0, max(int(min(last, s.To-1)-c0+1), 0), int(ri.Tail[x])
}

// update applies to w, holding column j = s.J, the pair updates of s's
// sources: w[i] -= L[i,c]·l for each source c in ascending order and each
// row i >= j of c, l being L[j,c] for Cholesky and D[c]·L[j,c] for LDLᵀ.
// That order, one source at a time, defines the factor's bits; the sources
// of one run hold the same rows, and go through passes of four, two and
// one, each subtracting from an element in the same order.
func (k Kernel) update(f *symbolic.Factor, ri *symbolic.RowIndex, val, w []float64, s *Step) {
	for x := ri.RunPtr[s.J]; x < ri.RunPtr[s.J+1]; x++ {
		c0, m, n := s.sources(ri, x)
		if m > 0 {
			p := f.ColPtr[c0+1] - n
			k.passes(f, val, w, f.RowInd[p:p+n], c0, m, n, 0)
		}
	}
}

// updateRun is update restricted to s's rows, [rlo, rhi]: the
// same sources in the same order through the same passes, over the slice
// of each run's tail in the band, found by one search per run (an end of
// the band that is an end of the column needs none) — the band holds every
// row of struct(j) in it and struct(c) below j lies in struct(j). A run
// with no row there is not read. update keeps a loop of its own: folded
// into it, the search and its bookkeeping cost the whole-column step
// 3–7 %, even behind a loop-invariant branch.
func (k Kernel) updateRun(f *symbolic.Factor, ri *symbolic.RowIndex, val, w []float64, s *Step) {
	j, rlo, rhi := int(s.J), f.RowInd[s.Lo], f.RowInd[s.Hi-1]
	last := f.RowInd[f.ColPtr[j+1]-1] // no source row lies below it
	for x := ri.RunPtr[j]; x < ri.RunPtr[j+1]; x++ {
		c0, m, n := s.sources(ri, x)
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
