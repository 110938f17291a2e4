package exec

// successorsRef is the successor list Compile built for every program
// before a column graph read its successors off the factor and a
// one-worker program kept none, kept as their oracle: the scale rule's
// predecessors, each split column's rewired to its two halves — the first
// waits on the column's sources but the last, the second on the first
// half and that source — and transposed, every list in ascending task
// order.
func successorsRef(pg *Program) [][]int32 {
	preds := scalePreds(pg)
	nt := len(preds)
	second := make([]int32, 2*len(pg.first))
	for k, t := range pg.first {
		ps := preds[t]
		preds = append(preds, ps[:len(ps)-1:len(ps)-1])
		second[2*k], second[2*k+1] = int32(nt+k), ps[len(ps)-1]
		preds[t] = second[2*k : 2*k+2 : 2*k+2]
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
