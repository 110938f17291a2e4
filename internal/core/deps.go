package core

import (
	"slices"
	"sort"

	"repro/internal/model"
)

// computeDeps determines, for every unit block, the set of unit blocks it
// depends on — the blocks holding source elements of update operations
// targeting it (Section 3.3 of the paper).
//
// An update into target element (i, j) reads the pair (i, k), (j, k) with
// k < j <= i. At the block level this induces the paper's ten dependency
// categories; all ten are instances of one rule. For a target unit U:
//
//   - a "j-source" V1 must hold (j, k): its row extent meets U's column
//     extent;
//   - an "i-source" V2 must hold (i, k): its row extent meets U's row
//     extent;
//   - V1 and V2 must share a source column k (same cluster, intersecting
//     column extents), with k < j and i >= j feasible.
//
// Categories 1-3 (column sources) consult the actual sparse structure of
// the source column; categories 4-10 (dense-block source pairs) reduce to
// interval intersections. The paper evaluates those with interval trees;
// here every interval is a band of a cluster's territory, so the sorted
// BandBounds/RowSplits the partition already holds, a per-row index of the
// territories and bandIndex answer the same queries. Because the blocks
// are dense on their extents, the interval conditions are exact: the
// result matches the element-level oracle (see DepsOracle).
//
// The column pass emits each (target, column) edge once, sources
// increasing; a stable counting sort buckets them by target. The dense
// pass visits targets in order and appends their sources behind the
// bucket, de-duplicated by a stamp per source, so all Preds are cut from
// one array.
func (p *Partition) computeDeps() {
	t := p.territories()
	nu := len(p.Units)
	edges := p.columnSourceDeps(t)
	// off[u] is where target u's column sources start in colSrc.
	off := make([]int32, nu+1)
	for _, u := range edges.tgt {
		off[u+1]++
	}
	for u := 0; u < nu; u++ {
		off[u+1] += off[u]
	}
	colSrc := make([]int32, len(edges.src))
	next := slices.Clone(off[:nu])
	for e, u := range edges.tgt {
		colSrc[next[u]] = edges.src[e]
		next[u]++
	}
	p.denseSourceDeps(t, off, colSrc)
}

// territory indexes the rows of the multi-column clusters: the clusters
// whose territory — column strip or a rectangle below it — holds row r are
// cluster[ptr[r]:ptr[r+1]], increasing.
type territory struct {
	ptr     []int32
	cluster []int32
}

func (p *Partition) territories() territory {
	type span struct{ lo, hi, cluster int }
	var spans []span
	for ci := range p.Clusters {
		if cl := &p.Clusters[ci]; !cl.Single {
			spans = append(spans, span{cl.ColLo, cl.ColHi, ci})
			for ri := range cl.Rects {
				spans = append(spans, span{cl.Rects[ri].RowLo, cl.Rects[ri].RowHi, ci})
			}
		}
	}
	n := p.F.N
	ptr := make([]int32, n+2)
	for _, s := range spans {
		for r := s.lo; r <= s.hi; r++ {
			ptr[r+2]++
		}
	}
	for r := 0; r < n; r++ {
		ptr[r+2] += ptr[r+1]
	}
	// ptr[r+1] is now the start of row r; filling advances it to the end.
	cluster := make([]int32, ptr[n+1])
	for _, s := range spans {
		for r := s.lo; r <= s.hi; r++ {
			cluster[ptr[r+1]] = int32(s.cluster)
			ptr[r+1]++
		}
	}
	return territory{ptr: ptr[:n+1], cluster: cluster}
}

// hits reports whether the sorted slice s has an element in [lo, hi].
func hits(s []int, lo, hi int) bool {
	k := sort.SearchInts(s, lo)
	return k < len(s) && s[k] <= hi
}

// columnSourceDeps handles categories 1-3: a single column k updates
// columns, triangles and rectangles. For each single-column cluster k the
// sub-diagonal structure S of column k is walked once; every pair
// (i, j) in S with i >= j is a target element, so a unit is a dependent
// exactly when S meets both its row and its column extent. The edges come
// back with sources increasing and no edge twice.
func (p *Partition) columnSourceDeps(t territory) (edges edgeList) {
	f := p.F
	var hitClusters []int32
	seen := make([]int32, len(p.Clusters)) // seen[c] == cu+1: c already hit by column unit cu
	for ci := range p.Clusters {
		cl := &p.Clusters[ci]
		if !cl.Single {
			continue
		}
		S := f.Col(cl.ColLo)[1:]
		cu := int32(cl.ColUnit)
		hitClusters = hitClusters[:0]
		for _, r := range S {
			// Category 1: column k updates column j for every j in S that is
			// itself a single-column cluster.
			if rc := &p.Clusters[p.ColCluster[r]]; rc.Single {
				edges.add(rc.ColUnit, cu)
			}
			// Multi-column clusters whose territory S touches.
			for _, c := range t.cluster[t.ptr[r]:t.ptr[r+1]] {
				if seen[c] != cu+1 {
					seen[c] = cu + 1
					hitClusters = append(hitClusters, c)
				}
			}
		}
		for _, c := range hitClusters {
			tcl := &p.Clusters[c]
			// Categories 2-3 against the triangle partition.
			for bi, tu := range tcl.TriUnits {
				lo, hi := tcl.BandBounds[bi], tcl.BandBounds[bi+1]-1
				if hits(S, lo, hi) {
					edges.add(tu, cu) // category 2: column updates triangle
					for bj := 0; bj < bi; bj++ {
						clo, chi := tcl.BandBounds[bj], tcl.BandBounds[bj+1]-1
						if hits(S, clo, chi) {
							// category 3 within the partitioned triangle
							edges.add(tcl.BandRects[bi][bj], cu)
						}
					}
				}
			}
			// Category 3 against the rectangles below the triangle.
			for ri := range tcl.Rects {
				r := &tcl.Rects[ri]
				if !hits(S, r.RowLo, r.RowHi) {
					continue
				}
				for a := 0; a+1 < len(r.RowSplits); a++ {
					if !hits(S, r.RowSplits[a], r.RowSplits[a+1]-1) {
						continue
					}
					for c := 0; c+1 < len(r.ColSplits); c++ {
						if hits(S, r.ColSplits[c], r.ColSplits[c+1]-1) {
							edges.add(r.Units[a][c], cu)
						}
					}
				}
			}
		}
	}
	return edges
}

// edgeList is a list of (target, source) unit pairs as parallel slices.
type edgeList struct{ tgt, src []int32 }

func (e *edgeList) add(tgt int, src int32) {
	e.tgt = append(e.tgt, int32(tgt))
	e.src = append(e.src, src)
}

// denseSourceDeps handles categories 4-10: source pairs drawn from the
// dense unit blocks of one cluster. Targets are visited in order; each
// one's list starts with its column sources colSrc[colOff[u]:colOff[u+1]]
// and is sorted once the dense sources have joined them. Every list is
// built in the one array preds — unit u's at preds[off[u]:off[u+1]] — and
// attached once the array has stopped growing.
func (p *Partition) denseSourceDeps(t territory, colOff, colSrc []int32) {
	f := p.F
	nu := len(p.Units)
	off, preds := make([]int32, nu+1), make([]int32, 0, 2*len(colSrc))
	// stamp[v] == ui+1: v is already a source of target ui (or is ui).
	stamp := make([]int32, nu)
	seen := make([]int32, len(p.Clusters)) // seen[c] == ui+1: cluster c already tried for ui
	var aBuf, bBuf []int32
	for ui := range p.Units {
		u := &p.Units[ui]
		cur := int32(ui + 1)
		stamp[ui] = cur
		start := len(preds)
		preds = append(preds, colSrc[colOff[ui]:colOff[ui+1]]...)
		// For a sparse column target an overlap of extents is necessary but
		// not sufficient: the i-source's rows must meet the actual
		// structure of the target column.
		var structJ []int
		if u.Kind == Column {
			structJ = f.Col(u.ColLo)
		}
		// Both sources lie in one cluster, and the j-source's rows meet U's
		// columns: only clusters whose territory does are candidates.
		for _, c := range t.cluster[t.ptr[u.ColLo]:t.ptr[u.ColHi+1]] {
			if seen[c] == cur {
				continue
			}
			seen[c] = cur
			scl := &p.Clusters[c]
			// i-source candidates: dense units whose rows meet U's rows.
			if bBuf = scl.rowUnits(u.RowLo, u.RowHi, structJ, bBuf[:0]); len(bBuf) == 0 {
				continue
			}
			// j-source candidates: dense units whose rows meet U's columns.
			aBuf = scl.rowUnits(u.ColLo, u.ColHi, nil, aBuf[:0])
			for _, a := range aBuf {
				va := &p.Units[a]
				jLo := max(va.RowLo, u.ColLo)
				jHi := min(va.RowHi, u.ColHi)
				for _, b := range bBuf {
					if stamp[a] == cur && stamp[b] == cur {
						continue // nothing new to learn from this pair
					}
					vb := &p.Units[b]
					kLo := max(va.ColLo, vb.ColLo)
					kHi := min(va.ColHi, vb.ColHi)
					if kLo > kHi {
						continue // no common source column
					}
					// k < j: the smallest usable j.
					jEff := max(jLo, kLo+1)
					if jEff > jHi {
						continue
					}
					// i >= j: U's rows must reach jEff within V2.
					if min(vb.RowHi, u.RowHi) < jEff {
						continue
					}
					for _, v := range [2]int32{a, b} {
						if stamp[v] != cur {
							stamp[v] = cur
							preds = append(preds, v)
						}
					}
				}
			}
		}
		if len(preds) > start+int(colOff[ui+1]-colOff[ui]) {
			slices.Sort(preds[start:])
		}
		off[ui+1] = int32(len(preds))
	}
	for u := range p.Units {
		if lo, hi := off[u], off[u+1]; lo < hi {
			p.Units[u].Preds = preds[lo:hi:hi]
		}
	}
}

// rowUnits appends to dst the dense units of the cluster whose row extent
// meets [x, y] and, when rows is non-nil, holds one of the sorted rows.
func (cl *Cluster) rowUnits(x, y int, rows []int, dst []int32) []int32 {
	if lo, hi := max(x, cl.ColLo), min(y, cl.ColHi); lo <= hi {
		for rb := bandIndex(cl.BandBounds, lo); rb < len(cl.TriUnits) && cl.BandBounds[rb] <= hi; rb++ {
			if rows != nil && !hits(rows, cl.BandBounds[rb], cl.BandBounds[rb+1]-1) {
				continue
			}
			for _, v := range cl.BandRects[rb] {
				dst = append(dst, int32(v))
			}
			dst = append(dst, int32(cl.TriUnits[rb]))
		}
	}
	// Rectangles are by increasing rows: start at the first that ends at
	// or after x.
	first := sort.Search(len(cl.Rects), func(ri int) bool { return cl.Rects[ri].RowHi >= x })
	for ri := first; ri < len(cl.Rects) && cl.Rects[ri].RowLo <= y; ri++ {
		r := &cl.Rects[ri]
		for a := bandIndex(r.RowSplits, max(x, r.RowLo)); a < len(r.Units) && r.RowSplits[a] <= y; a++ {
			if rows != nil && !hits(rows, r.RowSplits[a], r.RowSplits[a+1]-1) {
				continue
			}
			for _, v := range r.Units[a] {
				dst = append(dst, int32(v))
			}
		}
	}
	return dst
}

// DepsOracle computes the exact block dependency graph by enumerating
// every element-level update operation and mapping its source and target
// elements to units. It is the ground truth the categorical engine is
// validated against, and costs O(#updates).
func (p *Partition) DepsOracle(ops *model.Ops) [][]int32 {
	edges := make(map[int64]struct{})
	add := func(t, s int32) {
		if t != s {
			edges[int64(t)<<32|int64(s)] = struct{}{}
		}
	}
	rowInd := p.F.RowInd
	ops.ForEachRun(func(r model.Run) {
		srcJ := p.ElemUnit[r.Lo]
		for q := r.Lo; q < r.Hi; q++ {
			t := p.ElemUnit[r.Tgt[rowInd[q]]]
			add(t, p.ElemUnit[q])
			add(t, srcJ)
		}
	})
	out := make([][]int32, len(p.Units))
	for e := range edges {
		t := int(e >> 32)
		out[t] = append(out[t], int32(e&0xffffffff))
	}
	for t := range out {
		sort.Slice(out[t], func(a, b int) bool { return out[t][a] < out[t][b] })
	}
	return out
}
