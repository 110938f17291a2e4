package numeric

import (
	"math/bits"

	"repro/internal/symbolic"
)

// chunkLanes is the widest chunk of the serial kernel: one lane per
// column, eight float64 to a 64-byte line of the accumulator.
const chunkLanes = 8

// chunkMin and chunkRows are the rule for a chunk, fixed by measurement
// (EXPERIMENTS.md Chunk-1): a supernode chain of at least chunkMin
// columns whose first column holds at least chunkRows rows. A narrower or
// shorter chain goes column by column through column steps, faster
// there: its sources are few and short, and most hold some of the lanes.
const (
	chunkMin  = 4
	chunkRows = 48
)

// chunkWidth returns the number of columns, at most chunkLanes, of the
// supernode chain from column j: j itself and each next column c+1 that
// is c's elimination-tree parent with one row fewer, so column j+r holds
// column j's rows from its r-th on.
func chunkWidth(f *symbolic.Factor, j int) int {
	w := 1
	for w < chunkLanes && j+w < f.N && f.Parent[j+w-1] == j+w && f.ColLen(j+w-1) == f.ColLen(j+w)+1 {
		w++
	}
	return w
}

// srcRange is the sources c0 to c1 of a chunk from column j: consecutive
// columns below j that hold the chunk rows j+r of the lanes r set in
// mask, and no other chunk row, with the same n rows from the lowest of
// those rows down.
type srcRange struct {
	c0, c1, n int32
	mask      uint8
}

// chunkSources appends to dst the sources c < j of the chunk of the w
// columns from j, ascending, as ranges: it merges the run records of the
// chunk's rows j to j+w−1, cut at j, so a range ends where any of those
// rows' records starts or ends. Each column of a range lies in one record
// of every row it holds, the lowest row's record giving the tail.
func chunkSources(ri *symbolic.RowIndex, j, w int, dst []srcRange) []srcRange {
	// Row j+r's record cur[r] has its columns lo[r] to hi[r] left, lo[r]
	// at j when the row has no source below j left.
	var cur, end, lo, hi [chunkLanes]int32
	top := int32(j)
	load := func(r int) {
		lo[r] = top
		if x := cur[r]; x < end[r] {
			hi[r] = min(ri.Last[x], top-1)
			lo[r] = min(ri.Last[x]-int32(ri.RunLen[x])+1, top)
		}
	}
	for r := 0; r < w; r++ {
		cur[r], end[r] = ri.RunPtr[j+r], ri.RunPtr[j+r+1]
		load(r)
	}
	for {
		c0 := top
		for _, l := range lo[:w] {
			c0 = min(c0, l)
		}
		if c0 == top {
			return dst
		}
		s := srcRange{c0: c0, c1: top - 1}
		for r := w - 1; r >= 0; r-- {
			if lo[r] > c0 {
				s.c1 = min(s.c1, lo[r]-1)
			} else {
				s.c1 = min(s.c1, hi[r])
				s.mask |= 1 << r
				s.n = ri.Tail[cur[r]]
			}
		}
		dst = append(dst, s)
		for r := 0; r < w; r++ {
			if lo[r] == c0 {
				if lo[r] = s.c1 + 1; hi[r] == s.c1 {
					cur[r]++
					load(r)
				}
			}
		}
	}
}

// chunk factors the w >= 2 columns j to j+w−1 of one supernode chain
// (chunkWidth) as column steps factor each in turn, bit for bit, with src
// their sources below j (chunkSources). x is the accumulator, eight lanes
// a row: lane r of row i holds L[i, j+r] for i >= j+r, taken from val;
// the other lanes are never read. Every element takes its sources in
// ascending column, each as one rounded product, source value times
// multiplier, and one subtraction: first the ranges of src — four sources
// at a time through sub8x4, the rest one at a time through sub8 or, where
// the range holds some of the lanes, sub8m; under a range's mask the other
// lanes keep their bits — and then the chunk's own columns, each finished
// with Step's pivot rule and applied to the lanes after it. A rejected
// pivot is the error of a column step on that column.
func (k Kernel) chunk(f *symbolic.Factor, val, x []float64, src []srcRange, j, w int) error {
	for r := range w {
		lo, hi := f.ColPtr[j+r], f.ColPtr[j+r+1]
		for t, i := range f.RowInd[lo:hi] {
			x[int(i)*chunkLanes+r] = val[lo+t]
		}
	}
	all := uint8(1<<w - 1)
	var a [4][chunkLanes]float64
	for _, s := range src {
		n, mask := int(s.n), s.mask
		for c := int(s.c0); c <= int(s.c1); {
			p := f.ColPtr[c+1] - n
			rs, vs := f.RowInd[p:p+n], val[p:p+n]
			switch {
			case c+3 <= int(s.c1):
				var v [4][]float64
				for q := range v {
					pq := f.ColPtr[c+q+1] - n
					k.mults(f, val, &a[q], c+q, pq, mask)
					v[q] = val[pq : pq+n]
				}
				sub8x4Pass(x, rs, v[0], v[1], v[2], v[3], &a, mask|^all)
				c += 4
			case mask != all:
				k.mults(f, val, &a[0], c, p, mask)
				sub8mPass(x, rs, vs, &a[0], mask)
				c++
			default:
				k.mults(f, val, &a[0], c, p, mask)
				sub8Pass(x, rs, vs, &a[0])
				c++
			}
		}
	}
	for r := 0; r < w; r++ {
		c := j + r
		lo, hi := f.ColPtr[c], f.ColPtr[c+1]
		d, err := k.pivot(x[c*chunkLanes+r], c)
		if err != nil {
			return err
		}
		val[lo] = d
		rs, col := f.RowInd[lo+1:hi], val[lo+1:hi]
		for t, i := range rs {
			col[t] = x[int(i)*chunkLanes+r] / d
		}
		if r+1 < w {
			// Column c's multipliers for the lanes after it; the lanes
			// up to r are finished and written out, so a zero there
			// harms nothing.
			k.mults(f, val, &a[0], c, lo+1, all&^(1<<(r+1)-1))
			sub8Pass(x, rs, col, &a[0])
		}
	}
	return nil
}

// mults sets a[r], for each lane r set in mask, to source c's multiplier
// for column j+r — L[j+r,c], or D[c]·L[j+r,c] for LDLᵀ, formed as passes
// forms it — and every other lane to zero: the rows of those lanes are
// column c's entries from position p on, one each, in lane order.
func (k Kernel) mults(f *symbolic.Factor, val []float64, a *[chunkLanes]float64, c, p int, mask uint8) {
	if mask == 1<<chunkLanes-1 {
		*a = [chunkLanes]float64(val[p : p+chunkLanes])
	} else {
		*a = [chunkLanes]float64{}
		for m := mask; m != 0; m &= m - 1 {
			a[bits.TrailingZeros8(m)] = val[p]
			p++
		}
	}
	if k == KernelLDL {
		d := val[f.ColPtr[c]]
		for r, l := range a {
			a[r] = d * l
		}
	}
}
