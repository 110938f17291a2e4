package exec

import (
	"slices"

	"repro/internal/symbolic"
)

// successorsRef is the successor list of every program on more than one
// worker, kept as its oracle: the scale rule's predecessors — a split
// column graph's what columnWaitsRef reads off the factor's columns, its
// halves included — transposed, every list in ascending task order.
func successorsRef(pg *Program) [][]int32 {
	var preds [][]int32
	if len(pg.first) > 0 {
		preds = columnWaitsRef(pg)
	} else {
		preds = scalePreds(pg)
	}
	n := len(preds)
	succPtr := make([]int32, n+1)
	for _, ps := range preds {
		for _, pr := range ps {
			succPtr[pr+1]++
		}
	}
	for t := 0; t < n; t++ {
		succPtr[t+1] += succPtr[t]
	}
	succ := make([]int32, succPtr[n])
	fill := append([]int32(nil), succPtr[:n]...)
	for i, ps := range preds {
		for _, pr := range ps {
			succ[fill[pr]] = int32(i)
			fill[pr]++
		}
	}
	out := make([][]int32, n)
	for t := range out {
		out[t] = succ[succPtr[t]:succPtr[t+1]]
	}
	return out
}

// fullRows returns every row of f's strict lower triangle, the columns
// k < j with L[j,k] != 0 ascending, read off f's columns: the
// predecessors of a column graph before it waited on the tree.
func fullRows(f *symbolic.Factor) [][]int32 {
	rows := make([][]int32, f.N)
	for c := 0; c < f.N; c++ {
		for _, i := range f.Col(c)[1:] {
			rows[i] = append(rows[i], int32(c))
		}
	}
	return rows
}

// columnWaitsRef returns what every program task of pg, a column graph on
// more than one worker, waits on, from f's columns alone: column j on its
// children, the columns whose first row below the diagonal is j; split
// column k's first half on the same but its last source, and on every
// child of that source in row j; the second half on the first half and
// the last source.
func columnWaitsRef(pg *Program) [][]int32 {
	f, nt := pg.f, len(pg.tasks)
	rows, children := fullRows(f), make([][]int32, f.N)
	for c := 0; c < f.N; c++ {
		if col := f.Col(c); len(col) > 1 {
			children[col[1]] = append(children[col[1]], int32(c))
		}
	}
	waits := make([][]int32, pg.Tasks())
	copy(waits, children)
	for k, j := range pg.first {
		row := rows[j]
		last := row[len(row)-1]
		first := slices.DeleteFunc(slices.Clone(children[j]), func(c int32) bool { return c == last })
		for _, c := range children[last] {
			if _, ok := slices.BinarySearch(row, c); ok {
				first = append(first, c)
			}
		}
		waits[nt+k], waits[j] = first, []int32{int32(nt + k), last}
	}
	return waits
}
