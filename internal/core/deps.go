package core

import (
	"sort"

	"repro/internal/interval"
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
// interval intersections, evaluated here with interval trees. Because the
// blocks are dense on their extents, the interval conditions are exact:
// the result matches the element-level oracle (see depsOracle).
func (p *Partition) computeDeps() {
	edges := make(map[int64]struct{})
	addEdge := func(tgt, src int) {
		if tgt != src {
			edges[int64(tgt)<<32|int64(src)] = struct{}{}
		}
	}
	p.columnSourceDeps(addEdge)
	p.denseSourceDeps(addEdge)
	p.attachEdges(edges)
}

// attachEdges converts the edge set into sorted per-unit Preds lists.
func (p *Partition) attachEdges(edges map[int64]struct{}) {
	counts := make([]int, len(p.Units))
	for e := range edges {
		counts[int(e>>32)]++
	}
	for u := range p.Units {
		if counts[u] > 0 {
			p.Units[u].Preds = make([]int32, 0, counts[u])
		}
	}
	for e := range edges {
		t := int(e >> 32)
		s := int32(e & 0xffffffff)
		p.Units[t].Preds = append(p.Units[t].Preds, s)
	}
	for u := range p.Units {
		pr := p.Units[u].Preds
		sort.Slice(pr, func(a, b int) bool { return pr[a] < pr[b] })
	}
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
// exactly when S meets both its row and its column extent.
func (p *Partition) columnSourceDeps(addEdge func(tgt, src int)) {
	f := p.F
	// Region tree: map rows to the clusters whose territory (column strip
	// or below-rectangle rows) contains them.
	var regions interval.Tree
	for ci := range p.Clusters {
		cl := &p.Clusters[ci]
		if cl.Single {
			continue
		}
		regions.Insert(cl.ColLo, cl.ColHi, ci)
		for ri := range cl.Rects {
			regions.Insert(cl.Rects[ri].RowLo, cl.Rects[ri].RowHi, ci)
		}
	}
	var hitBuf []int
	seen := make([]bool, len(p.Clusters))
	for ci := range p.Clusters {
		cl := &p.Clusters[ci]
		if !cl.Single {
			continue
		}
		k := cl.ColLo
		S := f.Col(k)[1:]
		if len(S) == 0 {
			continue
		}
		cu := cl.ColUnit
		// Category 1: column k updates column j for every j in S that is
		// itself a single-column cluster.
		var hitClusters []int
		for _, r := range S {
			if rc := &p.Clusters[p.ColCluster[r]]; rc.Single {
				addEdge(rc.ColUnit, cu)
			}
		}
		// Multi-column clusters whose territory S touches.
		hitBuf = hitBuf[:0]
		for _, r := range S {
			hitBuf = regions.Stab(r, hitBuf)
		}
		for _, ci2 := range hitBuf {
			if !seen[ci2] {
				seen[ci2] = true
				hitClusters = append(hitClusters, ci2)
			}
		}
		for _, ci2 := range hitClusters {
			seen[ci2] = false
			tcl := &p.Clusters[ci2]
			// Categories 2-3 against the triangle partition.
			for bi, tu := range tcl.TriUnits {
				lo, hi := tcl.BandBounds[bi], tcl.BandBounds[bi+1]-1
				if hits(S, lo, hi) {
					addEdge(tu, cu) // category 2: column updates triangle
					for bj := 0; bj < bi; bj++ {
						clo, chi := tcl.BandBounds[bj], tcl.BandBounds[bj+1]-1
						if hits(S, clo, chi) {
							// category 3 within the partitioned triangle
							addEdge(tcl.BandRects[bi][bj], cu)
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
							addEdge(r.Units[a][c], cu)
						}
					}
				}
			}
		}
	}
}

// denseSourceDeps handles categories 4-10: source pairs drawn from the
// dense unit blocks of one cluster.
func (p *Partition) denseSourceDeps(addEdge func(tgt, src int)) {
	f := p.F
	// Interval tree over the row extents of all dense units.
	var rowTree interval.Tree
	for ui := range p.Units {
		u := &p.Units[ui]
		if u.Kind != Column {
			rowTree.Insert(u.RowLo, u.RowHi, ui)
		}
	}
	var aBuf, bBuf []int
	// Group source candidates by cluster using scratch lists.
	type pair struct{ a, b []int }
	byCluster := make(map[int]*pair)
	for ui := range p.Units {
		u := &p.Units[ui]
		// j-source candidates: dense units whose rows meet U's columns.
		aBuf = rowTree.Overlap(u.ColLo, u.ColHi, aBuf[:0])
		if len(aBuf) == 0 {
			continue
		}
		// i-source candidates: dense units whose rows meet U's rows.
		bBuf = rowTree.Overlap(u.RowLo, u.RowHi, bBuf[:0])
		if len(bBuf) == 0 {
			continue
		}
		var structJ []int
		if u.Kind == Column {
			structJ = f.Col(u.ColLo)
		}
		for k := range byCluster {
			delete(byCluster, k)
		}
		for _, a := range aBuf {
			c := p.Units[a].Cluster
			pr := byCluster[c]
			if pr == nil {
				pr = &pair{}
				byCluster[c] = pr
			}
			pr.a = append(pr.a, a)
		}
		for _, b := range bBuf {
			// For sparse column targets the interval overlap is necessary
			// but not sufficient: the source rows must meet the actual
			// structure of the target column.
			if u.Kind == Column {
				vb := &p.Units[b]
				if !hits(structJ, vb.RowLo, vb.RowHi) {
					continue
				}
			}
			c := p.Units[b].Cluster
			pr := byCluster[c]
			if pr == nil {
				continue // no j-source in that cluster
			}
			pr.b = append(pr.b, b)
		}
		for _, pr := range byCluster {
			if len(pr.b) == 0 {
				continue
			}
			for _, a := range pr.a {
				va := &p.Units[a]
				jLo := maxInt(va.RowLo, u.ColLo)
				jHi := minInt(va.RowHi, u.ColHi)
				for _, b := range pr.b {
					vb := &p.Units[b]
					kLo := maxInt(va.ColLo, vb.ColLo)
					kHi := minInt(va.ColHi, vb.ColHi)
					if kLo > kHi {
						continue // no common source column
					}
					// k < j: the smallest usable j.
					jEff := maxInt(jLo, kLo+1)
					if jEff > jHi {
						continue
					}
					// i >= j: U's rows must reach jEff within V2.
					iHi := minInt(vb.RowHi, u.RowHi)
					if iHi < jEff {
						continue
					}
					addEdge(ui, a)
					addEdge(ui, b)
				}
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
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
