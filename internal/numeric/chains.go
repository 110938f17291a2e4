package numeric

import (
	"fmt"

	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// Chains replays the link/ptr chain bookkeeping of the left-looking column
// algorithm (Kernel.Factorize, the body of Factorize and FactorizeLDL) over
// the symbolic structure alone, recording the exact update schedule the serial
// factorization executes: for every target column j, the chain entries
// head[j] <= c < head[j+1] list — in serial application order — the value
// position pos[c] of the element (j, k) whose source column k updates j.
// The update itself then reads column k from pos[c] to its end.
//
// Floating-point subtraction is order-sensitive, so any executor that
// wants to reproduce the serial factor bit for bit must apply each
// column's updates in exactly this order; the parallel 2D engine in
// internal/exec does, which is what makes its bit-identity guarantee hold
// rather than a tolerance comparison. The source column of entry c is
// recoverable as the column containing pos[c] (see symbolic.Factor.ColIndex).
func Chains(f *symbolic.Factor) (head, pos []int32) {
	n := f.N
	ptr := make([]int, n)
	link := make([]int, n)
	nextCol := make([]int, n)
	for i := range link {
		link[i] = -1
		nextCol[i] = -1
	}
	head = make([]int32, n+1)
	pos = make([]int32, 0, f.NNZ()-n) // one entry per off-diagonal element
	for j := 0; j < n; j++ {
		for k := link[j]; k != -1; {
			nk := nextCol[k]
			p := ptr[k]
			pos = append(pos, int32(p))
			// Advance column k to its next row block, exactly as the
			// numeric loops do.
			ptr[k] = p + 1
			if p+1 < f.ColPtr[k+1] {
				r := f.RowInd[p+1]
				nextCol[k] = link[r]
				link[r] = k
			}
			k = nk
		}
		head[j+1] = int32(len(pos))
		// Register column j for its first sub-diagonal row.
		base := f.ColPtr[j]
		if f.ColPtr[j+1] > base+1 {
			ptr[j] = base + 1
			r := f.RowInd[base+1]
			nextCol[j] = link[r]
			link[r] = j
		}
	}
	return head, pos
}

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
