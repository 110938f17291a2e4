package exec

import (
	"slices"

	"repro/internal/symbolic"
)

// successorsRef is the successor list Compile built for every program
// before a column graph read its successors off the factor and a
// one-worker program kept none, kept as their oracle: the scale rule's
// predecessors — a column graph's what columnWaitsRef reads off the
// factor's columns, its split columns' halves included — transposed,
// every list in ascending task order.
func successorsRef(pg *Program) [][]int32 {
	var preds [][]int32
	if pg.column {
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
// predecessors of a column graph before it waited on run ends only.
func fullRows(f *symbolic.Factor) [][]int32 {
	rows := make([][]int32, f.N)
	for c := 0; c < f.N; c++ {
		for _, i := range f.Col(c)[1:] {
			rows[i] = append(rows[i], int32(c))
		}
	}
	return rows
}

// runEnds returns the columns of row, row j of f, that end a run: a run
// is consecutive columns c, c+1, … of the row, each the elimination-tree
// parent of the one before and holding the same rows from row j down,
// never stepping onto a column that is a multiple of 255.
func runEnds(f *symbolic.Factor, row []int32, j int) []int32 {
	tail := func(c int32) int {
		col := f.Col(int(c))
		k, _ := slices.BinarySearch(col, int32(j))
		return len(col) - k
	}
	ends := []int32{}
	for e, c := range row {
		if e+1 == len(row) || row[e+1] != c+1 || (c+1)%255 == 0 || f.Parent[c] != int(c+1) || tail(c) != tail(c+1) {
			ends = append(ends, c)
		}
	}
	return ends
}

// columnWaitsRef returns what every program task of pg, a column graph on
// more than one worker, waits on, from f's columns alone: column j on the
// ends of row j's runs; split column k's first half on the same but its
// last source, and on the column before that source when it is in the
// source's run; the second half on the first half and the last source.
func columnWaitsRef(pg *Program) [][]int32 {
	f, nt := pg.f, len(pg.tasks)
	rows := fullRows(f)
	waits := make([][]int32, pg.Tasks())
	for j := 0; j < nt; j++ {
		waits[j] = runEnds(f, rows[j], j)
	}
	for k, j := range pg.first {
		row, ends := rows[j], waits[j]
		last := row[len(row)-1]
		first := slices.Clone(ends[:len(ends)-1])
		if len(row) > 1 && row[len(row)-2] == last-1 && !slices.Contains(ends, last-1) {
			first = append(first, last-1)
		}
		waits[nt+k], waits[j] = first, []int32{int32(nt + k), last}
	}
	return waits
}
