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
// row bands and column classes the partition already holds, a per-row
// index of the territories and merge walks answer the same queries.
// Because the blocks are dense on their extents, the interval conditions
// are exact: the result matches the element-level oracle (see DepsOracle).
//
// The column pass emits each (target, column) edge once, sources
// increasing; a stable counting sort buckets them by target. The dense
// pass visits targets in order and merges their dense sources, found in
// increasing order, with the bucket; every Preds is cut from chunks shared
// by all of them.
func (p *Partition) computeDeps() {
	nu := len(p.Units)
	edges := p.columnSourceDeps()
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
	p.denseSourceDeps(p.territories(), off, colSrc)
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

// splitsHit appends to dst, increasing, the indices b of the bands
// [bounds[b], bounds[b+1]) that hold one of the sorted values, all of
// which lie in [bounds[0], bounds[len-1]): one merge walk of both.
func splitsHit(bounds []int, vals []int32, dst []int) []int {
	b := 0
	for _, v := range vals {
		for int(v) >= bounds[b+1] {
			b++
		}
		if len(dst) == 0 || dst[len(dst)-1] != b {
			dst = append(dst, b)
		}
	}
	return dst
}

// columnSourceDeps handles categories 1-3: a single column k updates
// columns, triangles and rectangles. For each single-column cluster k the
// sub-diagonal structure S of column k is walked once; every pair
// (i, j) in S with i >= j is a target element, so a unit is a dependent
// exactly when S meets both its row and its column extent. A cluster is
// updated only if S meets its columns, and then the rows of S from there
// down all lie in its territory (column j's structure holds column k's from
// row j down), so merge walks of S against the band boundaries find every
// unit. The edges come back with sources increasing and no edge twice.
func (p *Partition) columnSourceDeps() (edges edgeList) {
	f := p.F
	// About as many edges as factor nonzeros on the suite.
	edges.tgt, edges.src = make([]int32, 0, f.NNZ()), make([]int32, 0, f.NNZ())
	var bands, rowsHit, colsHit []int
	for ci := range p.Clusters {
		cl := &p.Clusters[ci]
		if !cl.Single {
			continue
		}
		S := f.Col(cl.ColLo)[1:]
		cu := int32(cl.ColUnit)
		for x := 0; x < len(S); {
			tcl := &p.Clusters[p.ColCluster[S[x]]]
			if tcl.Single {
				// Category 1: column k updates column j for every j in S that
				// is itself a single-column cluster.
				edges.add(tcl.ColUnit, cu)
				x++
				continue
			}
			// S[x:y] are the rows of S in the cluster's columns, S[y:] rows
			// of its rectangles.
			y := x
			for y < len(S) && int(S[y]) <= tcl.ColHi {
				y++
			}
			cols := S[x:y]
			// Categories 2-3 against the triangle partition.
			bands = splitsHit(tcl.BandBounds, cols, bands[:0])
			for b, bi := range bands {
				edges.add(tcl.TriUnits[bi], cu) // category 2: column updates triangle
				for _, bj := range bands[:b] {
					edges.add(tcl.BandRects[bi][bj], cu) // category 3 within the triangle
				}
			}
			// Category 3 against the rectangles below the triangle.
			for ri, z := 0, y; z < len(S); ri++ {
				r := &tcl.Rects[ri]
				if r.RowHi < int(S[z]) {
					continue
				}
				z0 := z
				for z < len(S) && int(S[z]) <= r.RowHi {
					z++
				}
				rowsHit = splitsHit(r.RowSplits, S[z0:z], rowsHit[:0])
				colsHit = splitsHit(r.ColSplits, cols, colsHit[:0])
				for _, a := range rowsHit {
					for _, c := range colsHit {
						edges.add(r.Units[a][c], cu)
					}
				}
			}
			x = y
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
// one's list merges its column sources colSrc[colOff[u]:colOff[u+1]] with
// its dense sources, into chunks shared by all the lists.
//
// Within a candidate cluster the sources are (row band, column class)
// pairs. A pair of units sharing a source column shares a class, and the
// smallest common column k is where the class of the later of the two
// starts; since a larger k only tightens k < j, testing each class at its
// first column finds exactly the pairs that have some valid k. For one
// class the j-sources' smallest row j and the i-sources' largest row i
// both grow down the bands, so one pass over each band list decides which
// bands pair at all: no band is paired with another one by one.
func (p *Partition) denseSourceDeps(t territory, colOff, colSrc []int32) {
	f := p.F
	lists := arena[int32]{chunk: max(f.NNZ(), 1024)}
	// stamp[v] == ui+1: v is already a source of target ui (or is ui).
	stamp := make([]int32, len(p.Units))
	seen := make([]int32, len(p.Clusters)) // seen[c] == ui+1: cluster c already a candidate for ui
	var dense, cands, aBands, bBands []int32
	for ui := range p.Units {
		u := &p.Units[ui]
		cur := int32(ui + 1)
		stamp[ui] = cur
		// For a sparse column target an overlap of extents is necessary but
		// not sufficient: the i-source's rows must meet the actual
		// structure of the target column.
		var structJ []int32
		if u.Kind == Column {
			structJ = f.Col(u.ColLo)
		}
		// Both sources lie in one cluster, and the j-source's rows meet U's
		// columns: only clusters whose territory does are candidates. Taken
		// in increasing order they give their units in increasing order.
		cands = cands[:0]
		for _, c := range t.cluster[t.ptr[u.ColLo]:t.ptr[u.ColHi+1]] {
			if seen[c] != cur {
				seen[c] = cur
				cands = append(cands, c)
			}
		}
		slices.Sort(cands)
		dense = dense[:0]
		for _, c := range cands {
			scl := &p.Clusters[c]
			// i-source bands: rows meeting U's rows; j-source bands: rows
			// meeting U's columns.
			if bBands = scl.bandsMeeting(u.RowLo, u.RowHi, structJ, bBands[:0]); len(bBands) == 0 {
				continue
			}
			aBands = scl.bandsMeeting(u.ColLo, u.ColHi, nil, aBands[:0])
			// The largest row i an i-source band offers.
			iMax := min(scl.rows[bBands[len(bBands)-1]].hi, u.RowHi)
			if scl.ColHi < u.ColLo {
				// Every column k of the cluster is left of U, so a j-source
				// band's smallest row j = max(lo, U.ColLo) does not depend on
				// k: a band is a source in every class or in none, with all
				// the units of its row. The j-sources are a prefix of their
				// bands, the i-sources a suffix of theirs; only rectangle rows
				// reach U.
				na := 0
				for na < len(aBands) && max(scl.rows[aBands[na]].lo, u.ColLo) <= iMax {
					na++
				}
				if na == 0 {
					continue
				}
				jMin, nb := max(scl.rows[aBands[0]].lo, u.ColLo), len(bBands)
				for nb > 0 && min(scl.rows[bBands[nb-1]].hi, u.RowHi) >= jMin {
					nb--
				}
				dense = scl.appendBandUnits(dense, aBands[:na], bBands[nb:])
				continue
			}
			// U lies in this cluster, the last candidate: sweep the classes
			// left of its last column, k their first column.
			own := len(dense)
			add := func(v int32) {
				if stamp[v] != cur {
					stamp[v] = cur
					dense = append(dense, v)
				}
			}
			for _, k := range scl.classes {
				if k >= u.ColHi || k+1 > iMax {
					break
				}
				jMin := -1
				for _, a := range aBands {
					ra := &scl.rows[a]
					j := max(ra.lo, u.ColLo, k+1)
					if j > min(ra.hi, u.ColHi) {
						continue
					}
					if j > iMax {
						break
					}
					if jMin < 0 {
						jMin = j
					}
					add(p.unitAt(scl, ra, k))
				}
				for b := len(bBands) - 1; jMin >= 0 && b >= 0; b-- {
					rb := &scl.rows[bBands[b]]
					if min(rb.hi, u.RowHi) < jMin {
						break
					}
					add(p.unitAt(scl, rb, k))
				}
			}
			slices.Sort(dense[own:])
		}
		if col := colSrc[colOff[ui]:colOff[ui+1]]; len(col)+len(dense) > 0 {
			u.Preds = merge(lists.take(len(col)+len(dense)), col, dense)
		}
	}
}

// appendBandUnits appends to dst, in increasing order, the units of the
// rectangle row bands listed in a or b (each increasing).
func (cl *Cluster) appendBandUnits(dst, a, b []int32) []int32 {
	for len(a)+len(b) > 0 {
		var band int32
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			band, a = a[0], a[1:]
		case len(a) == 0 || b[0] < a[0]:
			band, b = b[0], b[1:]
		default:
			band, a, b = a[0], a[1:], b[1:]
		}
		for _, v := range cl.rows[band].units {
			dst = append(dst, int32(v))
		}
	}
	return dst
}

// merge fills dst with the union of the disjoint increasing lists x and y,
// increasing.
func merge(dst, x, y []int32) []int32 {
	i := 0
	for len(x) > 0 && len(y) > 0 {
		if x[0] < y[0] {
			dst[i], x = x[0], x[1:]
		} else {
			dst[i], y = y[0], y[1:]
		}
		i++
	}
	i += copy(dst[i:], x)
	copy(dst[i:], y)
	return dst
}

// bandsMeeting appends to dst the indices of the cluster's row bands that
// meet rows [x, y] and, when rows is non-nil, hold one of the sorted rows.
func (cl *Cluster) bandsMeeting(x, y int, rows []int32, dst []int32) []int32 {
	b := sort.Search(len(cl.rows), func(b int) bool { return cl.rows[b].hi >= x })
	for ; b < len(cl.rows) && cl.rows[b].lo <= y; b++ {
		if rows != nil {
			for len(rows) > 0 && int(rows[0]) < cl.rows[b].lo {
				rows = rows[1:]
			}
			if len(rows) == 0 {
				break
			}
			if int(rows[0]) > cl.rows[b].hi {
				continue
			}
		}
		dst = append(dst, int32(b))
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
