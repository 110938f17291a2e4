package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// The partitioner's passes as they stood before the flat dependency pass
// and the shared arenas: clusters, unit blocks and the element map built
// with one allocation per cluster piece, dependencies collected in a
// map[int64]struct{} through an addEdge closure behind two interval trees
// (interval_ref_test.go) and a map of candidate lists per unit. Kept
// verbatim (method receivers became parameters) as the field-for-field
// oracle of NewPartitionWork; DepsOracle remains the element-level ground
// truth for Preds.

// refNewPartitionWork is NewPartitionWork over the reference passes.
func refNewPartitionWork(f *symbolic.Factor, opts Options, elemWork []int64) *Partition {
	opts = opts.Normalized()
	var stats symbolic.RelaxStats
	if opts.RelaxZeros > 0 {
		f, stats = symbolic.Relax(f, opts.RelaxZeros)
		elemWork = nil
	}
	if elemWork == nil {
		elemWork = model.ElementWork(model.NewOps(f))
	}
	p := &Partition{F: f, Opts: opts, Relax: stats}
	refIdentifyClusters(p)
	refPartitionBlocks(p)
	p.TotalWork = model.TotalWork(elemWork)
	refMapElements(p, elemWork)
	refComputeDeps(p)
	return p
}

// refIdentifyClusters finds the clusters of Section 3.1 from the factor's
// fundamental supernodes, applying the minimum-width rule.
func refIdentifyClusters(p *Partition) {
	f := p.F
	starts := f.Supernodes()
	p.ColCluster = make([]int32, f.N)
	for k := 0; k+1 < len(starts); k++ {
		s, e := starts[k], starts[k+1]
		if e-s < p.Opts.MinClusterWidth || e-s == 1 {
			// "No strip of columns less than [width] columns wide is
			// acceptable as a cluster — it is broken up into individual
			// columns."
			for j := s; j < e; j++ {
				id := len(p.Clusters)
				p.Clusters = append(p.Clusters, Cluster{
					ID: id, ColLo: j, ColHi: j, Single: true,
				})
				p.ColCluster[j] = int32(id)
			}
			continue
		}
		id := len(p.Clusters)
		cl := Cluster{ID: id, ColLo: s, ColHi: e - 1}
		// Dense rectangles below the triangle: the sub-diagonal rows of the
		// first column (identical for all columns of a supernode) split
		// into contiguous runs.
		rows := f.Col(s)
		var below []int
		for _, r := range rows {
			if r >= e {
				below = append(below, r)
			}
		}
		for a := 0; a < len(below); {
			b := a
			for b+1 < len(below) && below[b+1] == below[b]+1 {
				b++
			}
			cl.Rects = append(cl.Rects, Rect{RowLo: below[a], RowHi: below[b]})
			a = b + 1
		}
		p.Clusters = append(p.Clusters, cl)
		for j := s; j < e; j++ {
			p.ColCluster[j] = int32(id)
		}
	}
}

// refPartitionBlocks splits each cluster's dense blocks into unit blocks
// (Section 3.2).
func refPartitionBlocks(p *Partition) {
	g := p.Opts.Grain
	for ci := range p.Clusters {
		cl := &p.Clusters[ci]
		if cl.Single {
			j := cl.ColLo
			u := Unit{
				ID: len(p.Units), Kind: Column, Cluster: ci,
				RowLo: j, RowHi: lastRow(p.F, j), ColLo: j, ColHi: j,
			}
			cl.ColUnit = u.ID
			p.Units = append(p.Units, u)
			continue
		}
		m := cl.Width()
		// Triangle: number of bands b is the largest with b(b+1)/2 units
		// not exceeding Pd = max(1, triangle-elements / g).
		triElems := m * (m + 1) / 2
		pd := triElems / g
		if pd < 1 {
			pd = 1
		}
		b := 1
		for (b+1)*(b+2)/2 <= pd && b+1 <= m {
			b++
		}
		cl.BandBounds = refSplitRange(cl.ColLo, cl.ColHi+1, b)
		cl.TriUnits = make([]int, b)
		cl.BandRects = make([][]int, b)
		for bi := 0; bi < b; bi++ {
			lo, hi := cl.BandBounds[bi], cl.BandBounds[bi+1]-1
			// Create the band's rectangles before its triangle: the
			// triangle receives updates from the rectangles to its left
			// (category 8), so unit IDs stay topologically ordered.
			cl.BandRects[bi] = make([]int, bi)
			for bj := 0; bj < bi; bj++ {
				clo, chi := cl.BandBounds[bj], cl.BandBounds[bj+1]-1
				r := Unit{
					ID: len(p.Units), Kind: Rectangle, Cluster: ci,
					RowLo: lo, RowHi: hi, ColLo: clo, ColHi: chi,
				}
				cl.BandRects[bi][bj] = r.ID
				p.Units = append(p.Units, r)
			}
			u := Unit{
				ID: len(p.Units), Kind: Triangle, Cluster: ci,
				RowLo: lo, RowHi: hi, ColLo: lo, ColHi: hi,
			}
			cl.TriUnits[bi] = u.ID
			p.Units = append(p.Units, u)
		}
		// Allocation order within the triangle: triangles top to bottom,
		// then band rectangles top to bottom, left to right.
		cl.TriAlloc = append([]int(nil), cl.TriUnits...)
		for bi := 1; bi < b; bi++ {
			cl.TriAlloc = append(cl.TriAlloc, cl.BandRects[bi]...)
		}
		// Rectangles below the triangle: near-square grids of at most
		// Pd = max(1, area/g) cells.
		for ri := range cl.Rects {
			r := &cl.Rects[ri]
			h := r.RowHi - r.RowLo + 1
			area := h * m
			rpd := area / g
			if rpd < 1 {
				rpd = 1
			}
			qr, qc := gridShape(h, m, rpd)
			r.RowSplits = refSplitRange(r.RowLo, r.RowHi+1, qr)
			r.ColSplits = refSplitRange(cl.ColLo, cl.ColHi+1, qc)
			r.Units = make([][]int, qr)
			for a := 0; a < qr; a++ {
				r.Units[a] = make([]int, qc)
				for c := 0; c < qc; c++ {
					u := Unit{
						ID: len(p.Units), Kind: Rectangle, Cluster: ci,
						RowLo: r.RowSplits[a], RowHi: r.RowSplits[a+1] - 1,
						ColLo: r.ColSplits[c], ColHi: r.ColSplits[c+1] - 1,
					}
					r.Units[a][c] = u.ID
					p.Units = append(p.Units, u)
				}
			}
		}
	}
}

// refSplitRange divides [lo, hi) into parts near-equal contiguous pieces and
// returns the part boundaries (len parts+1). Earlier pieces receive the
// remainder, making the top bands of a triangle the (slightly) larger ones.
func refSplitRange(lo, hi, parts int) []int {
	n := hi - lo
	if parts > n {
		parts = n
	}
	bounds := make([]int, parts+1)
	base, rem := n/parts, n%parts
	x := lo
	for i := 0; i < parts; i++ {
		bounds[i] = x
		x += base
		if i < rem {
			x++
		}
	}
	bounds[parts] = hi
	return bounds
}

// refMapElements assigns every factor nonzero to its unit block and
// accumulates per-unit element counts and work.
func refMapElements(p *Partition, elemWork []int64) {
	f := p.F
	p.ElemUnit = make([]int32, f.NNZ())
	for j := 0; j < f.N; j++ {
		ci := p.ColCluster[j]
		cl := &p.Clusters[ci]
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			i := f.RowInd[q]
			var uid int
			switch {
			case cl.Single:
				uid = cl.ColUnit
			case i <= cl.ColHi:
				rb := bandIndex(cl.BandBounds, i)
				cb := bandIndex(cl.BandBounds, j)
				if rb == cb {
					uid = cl.TriUnits[rb]
				} else {
					uid = cl.BandRects[rb][cb]
				}
			default:
				uid = refRectUnitOf(cl, i, j)
			}
			p.ElemUnit[q] = int32(uid)
			p.Units[uid].Elems++
			p.Units[uid].Work += elemWork[q]
		}
	}
}

// refRectUnitOf finds the below-triangle unit holding element (i, j).
func refRectUnitOf(cl *Cluster, i, j int) int {
	// Binary search the rectangle containing row i.
	lo, hi := 0, len(cl.Rects)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if cl.Rects[mid].RowLo <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	r := &cl.Rects[lo]
	if i < r.RowLo || i > r.RowHi {
		panic(fmt.Sprintf("core: row %d not in any rectangle of cluster %d", i, cl.ID))
	}
	return r.Units[bandIndex(r.RowSplits, i)][bandIndex(r.ColSplits, j)]
}

// refComputeDeps determines, for every unit block, the set of unit blocks it
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
func refComputeDeps(p *Partition) {
	edges := make(map[int64]struct{})
	addEdge := func(tgt, src int) {
		if tgt != src {
			edges[int64(tgt)<<32|int64(src)] = struct{}{}
		}
	}
	refColumnSourceDeps(p, addEdge)
	refDenseSourceDeps(p, addEdge)
	refAttachEdges(p, edges)
}

// refAttachEdges converts the edge set into sorted per-unit Preds lists.
func refAttachEdges(p *Partition, edges map[int64]struct{}) {
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

// refHits reports whether the sorted slice s has an element in [lo, hi].
func refHits(s []int, lo, hi int) bool {
	k := sort.SearchInts(s, lo)
	return k < len(s) && s[k] <= hi
}

// refColumnSourceDeps handles categories 1-3: a single column k updates
// columns, triangles and rectangles. For each single-column cluster k the
// sub-diagonal structure S of column k is walked once; every pair
// (i, j) in S with i >= j is a target element, so a unit is a dependent
// exactly when S meets both its row and its column extent.
func refColumnSourceDeps(p *Partition, addEdge func(tgt, src int)) {
	f := p.F
	// Region tree: map rows to the clusters whose territory (column strip
	// or below-rectangle rows) contains them.
	var regions refTree
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
				if refHits(S, lo, hi) {
					addEdge(tu, cu) // category 2: column updates triangle
					for bj := 0; bj < bi; bj++ {
						clo, chi := tcl.BandBounds[bj], tcl.BandBounds[bj+1]-1
						if refHits(S, clo, chi) {
							// category 3 within the partitioned triangle
							addEdge(tcl.BandRects[bi][bj], cu)
						}
					}
				}
			}
			// Category 3 against the rectangles below the triangle.
			for ri := range tcl.Rects {
				r := &tcl.Rects[ri]
				if !refHits(S, r.RowLo, r.RowHi) {
					continue
				}
				for a := 0; a+1 < len(r.RowSplits); a++ {
					if !refHits(S, r.RowSplits[a], r.RowSplits[a+1]-1) {
						continue
					}
					for c := 0; c+1 < len(r.ColSplits); c++ {
						if refHits(S, r.ColSplits[c], r.ColSplits[c+1]-1) {
							addEdge(r.Units[a][c], cu)
						}
					}
				}
			}
		}
	}
}

// refDenseSourceDeps handles categories 4-10: source pairs drawn from the
// dense unit blocks of one cluster.
func refDenseSourceDeps(p *Partition, addEdge func(tgt, src int)) {
	f := p.F
	// Interval tree over the row extents of all dense units.
	var rowTree refTree
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
				if !refHits(structJ, vb.RowLo, vb.RowHi) {
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
				jLo := max(va.RowLo, u.ColLo)
				jHi := min(va.RowHi, u.ColHi)
				for _, b := range pr.b {
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
					iHi := min(vb.RowHi, u.RowHi)
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

// partitionDiff reports the first field in which got differs from want,
// field for field over everything a Partition exports (nil and empty
// slices compare equal); "" when they agree.
func partitionDiff(got, want *Partition) string {
	switch {
	case got.Opts != want.Opts:
		return "Opts"
	case got.TotalWork != want.TotalWork:
		return "TotalWork"
	case got.Relax != want.Relax:
		return "Relax"
	case got.F.N != want.F.N || !slices.Equal(got.F.ColPtr, want.F.ColPtr) || !slices.Equal(got.F.RowInd, want.F.RowInd):
		return "F"
	case !slices.Equal(got.ColCluster, want.ColCluster):
		return "ColCluster"
	case !slices.Equal(got.ElemUnit, want.ElemUnit):
		return "ElemUnit"
	case len(got.Clusters) != len(want.Clusters):
		return "len(Clusters)"
	case len(got.Units) != len(want.Units):
		return "len(Units)"
	}
	for ci := range want.Clusters {
		g, w := &got.Clusters[ci], &want.Clusters[ci]
		if g.ID != w.ID || g.ColLo != w.ColLo || g.ColHi != w.ColHi || g.Single != w.Single || g.ColUnit != w.ColUnit ||
			!slices.Equal(g.BandBounds, w.BandBounds) || !slices.Equal(g.TriUnits, w.TriUnits) ||
			!slices.Equal(g.TriAlloc, w.TriAlloc) || !slices.EqualFunc(g.BandRects, w.BandRects, slices.Equal[[]int]) ||
			len(g.Rects) != len(w.Rects) {
			return fmt.Sprintf("Clusters[%d]", ci)
		}
		for ri := range w.Rects {
			gr, wr := &g.Rects[ri], &w.Rects[ri]
			if gr.RowLo != wr.RowLo || gr.RowHi != wr.RowHi || !slices.Equal(gr.RowSplits, wr.RowSplits) ||
				!slices.Equal(gr.ColSplits, wr.ColSplits) || !slices.EqualFunc(gr.Units, wr.Units, slices.Equal[[]int]) {
				return fmt.Sprintf("Clusters[%d].Rects[%d]", ci, ri)
			}
		}
	}
	for ui := range want.Units {
		g, w := got.Units[ui], want.Units[ui]
		if !slices.Equal(g.Preds, w.Preds) {
			return fmt.Sprintf("Units[%d].Preds: %v, want %v", ui, g.Preds, w.Preds)
		}
		g.Preds, w.Preds = nil, nil
		if !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("Units[%d]: %+v, want %+v", ui, g, w)
		}
	}
	return ""
}

// checkPartitionMatchesRef holds one partitioning to both oracles: the
// reference passes field for field, and the element-level enumeration for
// the dependency lists.
func checkPartitionMatchesRef(t *testing.T, cell string, f *symbolic.Factor, opts Options) {
	t.Helper()
	got, want := NewPartition(f, opts), refNewPartitionWork(f, opts, nil)
	if d := partitionDiff(got, want); d != "" {
		t.Fatalf("%s: partition differs from the reference in %s", cell, d)
	}
	if missing, extra := depsEqual(got, got.DepsOracle(model.NewOps(got.F))); missing != 0 || extra != 0 {
		t.Fatalf("%s: %d oracle dependencies missing, %d reported that the oracle does not have", cell, missing, extra)
	}
}

// TestPartitionMatchesReference: over the suite and the option grid of the
// studies (grain, minimum cluster width, relaxation) the partition is the
// reference's in every exported field, and its Preds the oracle's.
func TestPartitionMatchesReference(t *testing.T) {
	grains, widths, relax := []int{1, 4, 25, 100}, []int{2, 4, 8}, []float64{0, 0.1, 0.3}
	if testing.Short() || raceBuild {
		grains, widths, relax = []int{1, 25}, []int{2, 4}, []float64{0, 0.3}
	}
	for _, tm := range gen.Suite() {
		f := analyzedMatrix(tm.Build())
		for _, g := range grains {
			for _, w := range widths {
				for _, rz := range relax {
					opts := Options{Grain: g, MinClusterWidth: w, RelaxZeros: rz}
					checkPartitionMatchesRef(t, fmt.Sprintf("%s/%+v", tm.Name, opts), f, opts)
				}
			}
		}
	}
}

// TestPartitionMatchesReferenceRandom: the random patterns of
// TestDepsMatchOracleRandom, under its options and a relaxed variant.
func TestPartitionMatchesReferenceRandom(t *testing.T) {
	check := func(seed int64) bool {
		f := analyzedMatrix(gen.Random(45, 1.5, seed))
		for _, opts := range []Options{{Grain: 3, MinClusterWidth: 2}, {Grain: 1, MinClusterWidth: 2, RelaxZeros: 0.3}} {
			checkPartitionMatchesRef(t, fmt.Sprintf("seed %d/%+v", seed, opts), f, opts)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// fuzzPartitionCase decodes bytes into a small symmetric pattern (n <= 24,
// natural order, as traffic's fuzzCase) and partitioner options.
func fuzzPartitionCase(data []byte) (*sparse.Matrix, Options) {
	if len(data) < 4 {
		return nil, Options{}
	}
	n := 2 + int(data[0])%23
	opts := Options{
		Grain:           1 + int(data[1])%30,
		MinClusterWidth: 2 + int(data[1]>>5),
		RelaxZeros:      float64(data[2]%4) * 0.15,
	}
	nedges := int(data[3]) % 96
	data = data[4:]
	var edges [][2]int
	for ; nedges > 0 && len(data) >= 2; nedges-- {
		edges = append(edges, [2]int{int(data[0]) % n, int(data[1]) % n})
		data = data[2:]
	}
	m, err := sparse.NewPattern(n, edges)
	if err != nil {
		return nil, Options{}
	}
	return m, opts
}

// FuzzPartitionDeps holds the partitioner to both oracles on
// fuzzer-written patterns under fuzzer-written grain, width and
// relaxation, and checks the structural invariants of the result.
func FuzzPartitionDeps(f *testing.F) {
	f.Add([]byte{3, 0, 0, 6, 0, 1, 1, 2, 0, 2, 0, 3, 1, 3, 2, 3})                            // dense 4x4: one cluster, g = 1
	f.Add([]byte{22, 3, 0, 40, 0, 5, 5, 9, 9, 1, 1, 20, 3, 7, 0, 4, 12, 13, 13, 14, 12, 14}) // sparse, g = 4, width 2
	f.Add([]byte{16, 68, 2, 30, 10, 11, 10, 12, 10, 13, 11, 12, 11, 13, 12, 13, 14, 10, 15, 11, 17, 12, 0, 10, 1, 11})
	f.Add([]byte{5, 1, 3, 6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6}) // chain, relaxed
	f.Add([]byte{23, 230, 1, 95, 0, 23, 1, 22, 2, 21, 3, 20, 4, 19, 5, 18, 6, 17, 7, 16, 8, 15, 9, 14, 10, 13, 11, 12, 0, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, opts := fuzzPartitionCase(data)
		if m == nil {
			return
		}
		f := symbolic.Analyze(m)
		checkPartitionMatchesRef(t, "fuzz", f, opts)
		checkInvariants(t, NewPartition(f, opts))
	})
}
