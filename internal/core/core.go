// Package core implements the paper's primary contribution: the automatic,
// block-based partitioning of a sparse Cholesky factor into schedulable
// unit blocks, and the identification of inter-block dependencies
// (Venugopal & Naik, SC'91, Section 3).
//
// The pipeline is:
//
//  1. Identify clusters — strips of consecutive columns whose sub-diagonal
//     structure is dense (supernodes). A cluster is either a single column
//     or a strip with a dense triangle at the diagonal and dense
//     rectangles below it (Section 3.1). Strips narrower than the minimum
//     cluster width are broken into single columns.
//  2. Partition each dense block into unit blocks subject to the grain
//     size g, the minimum number of matrix elements per unit (Section 3.2,
//     Figure 3): triangles split into b diagonal sub-triangles and
//     b(b-1)/2 sub-rectangles over near-equal column bands; rectangles
//     split into near-square grids.
//  3. Determine the dependencies between unit blocks (Section 3.3), the
//     ten categories of Figure 4, found by searching the sorted band and
//     rectangle boundaries the partition already holds.
//
// Scheduling of the resulting units is in package sched.
package core

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/symbolic"
)

// Kind classifies unit blocks. "These unit blocks have a regular shape —
// each unit block is either a column, a rectangle or a triangle."
type Kind uint8

const (
	// Column is a single sparse column (with its diagonal element).
	Column Kind = iota
	// Triangle is a dense lower-triangular diagonal block.
	Triangle
	// Rectangle is a dense off-diagonal block (either inside a partitioned
	// cluster triangle or in the rectangles below it).
	Rectangle
)

func (k Kind) String() string {
	switch k {
	case Column:
		return "column"
	case Triangle:
		return "triangle"
	case Rectangle:
		return "rectangle"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Unit is one schedulable unit block.
type Unit struct {
	ID      int
	Kind    Kind
	Cluster int // owning cluster index
	// Extents, inclusive. For Column units ColLo == ColHi is the column
	// index, RowLo the diagonal and RowHi the last structural row (the
	// rows in between are sparse). Triangle units have RowLo..RowHi ==
	// ColLo..ColHi. Rectangle units are dense on rows x cols.
	RowLo, RowHi int
	ColLo, ColHi int
	// Elems is the number of factor nonzeros in the unit; Work their total
	// work under the paper's 2-per-pair + 1-per-diagonal model.
	Elems int
	Work  int64
	// Preds lists the unit IDs this block depends on (blocks providing
	// source elements for updates into this block), sorted.
	Preds []int32
}

// Rect is a dense rectangle below a cluster's triangle, before and after
// partitioning into unit blocks.
type Rect struct {
	RowLo, RowHi int
	// RowSplits/ColSplits partition the rectangle into a grid; len
	// qr+1/qc+1 with the extents at the ends. Units[r][c] is the unit ID
	// of grid cell (r, c).
	RowSplits []int
	ColSplits []int
	Units     [][]int
}

// Cluster is a strip of consecutive columns identified in the factor.
type Cluster struct {
	ID           int
	ColLo, ColHi int
	Single       bool
	// ColUnit is the unit ID for single-column clusters.
	ColUnit int
	// For multi-column clusters: BandBounds partitions [ColLo, ColHi+1)
	// into triangle bands; TriUnits[b] is the diagonal sub-triangle of
	// band b; BandRects[i][j] (j < i) the sub-rectangle rows band i x cols
	// band j. TriAlloc lists the triangle-partition units in the paper's
	// allocation order: triangles top to bottom, then rectangles top to
	// bottom, left to right (t1,t3,t6,t2,t4,t5 in Figure 3).
	BandBounds []int
	TriUnits   []int
	BandRects  [][]int
	TriAlloc   []int
	Rects      []Rect
}

// Width returns the number of columns in the cluster.
func (c *Cluster) Width() int { return c.ColHi - c.ColLo + 1 }

// Options controls the partitioner.
type Options struct {
	// Grain is the minimum number of matrix elements per unit block
	// (the paper's g). Values <= 0 default to 4, the paper's base case.
	Grain int
	// MinClusterWidth is the minimum acceptable width of a multi-column
	// cluster (the paper's minimum cluster width); narrower supernodes are
	// broken into single columns. Values <= 0 default to 4, the setting
	// used for Tables 2 and 3.
	MinClusterWidth int
	// RelaxZeros enables the paper's "including small regions that
	// correspond to zeros" (Section 3.1): adjacent supernodes are merged
	// while the explicit zeros stay within this fraction of the merged
	// block area. 0 disables relaxation (the paper's default, where
	// "inclusion of such areas with zero elements is kept to a minimum").
	RelaxZeros float64
}

// Normalized returns the options with defaults applied, the canonical
// form under which two option values partition identically.
func (o Options) Normalized() Options {
	if o.Grain <= 0 {
		o.Grain = 4
	}
	if o.MinClusterWidth <= 0 {
		o.MinClusterWidth = 4
	}
	return o
}

// Partition is the partitioner output: clusters, unit blocks, the
// element-to-unit map and the dependency graph.
type Partition struct {
	// F is the factor structure partitioned. With Options.RelaxZeros > 0
	// this is the padded (relaxed) factor, a closed superset of the input.
	F          *symbolic.Factor
	Opts       Options
	Clusters   []Cluster
	Units      []Unit
	ColCluster []int32 // column -> cluster ID
	ElemUnit   []int32 // factor nonzero position -> unit ID
	// TotalWork is the sum of all element work (independent of the
	// partitioning; includes the cost of padded zeros when relaxed).
	TotalWork int64
	// Relax reports what relaxation did (zero value when disabled).
	Relax symbolic.RelaxStats
}

// NewPartition runs the partitioning pipeline of Section 3 on the factor
// structure f: cluster identification, block partitioning and dependency
// analysis.
func NewPartition(f *symbolic.Factor, opts Options) *Partition {
	return NewPartitionWork(f, opts, nil)
}

// NewPartitionWork is NewPartition for a caller that already holds
// model.ElementWork of f (strategy.Sys does), sparing the second pass over
// every update. elemWork is used only when opts.RelaxZeros == 0:
// relaxation pads the factor, whose work is then computed here, as it is
// when elemWork is nil.
func NewPartitionWork(f *symbolic.Factor, opts Options, elemWork []int64) *Partition {
	opts = opts.Normalized()
	var stats symbolic.RelaxStats
	if opts.RelaxZeros > 0 {
		f, stats = symbolic.Relax(f, opts.RelaxZeros)
		elemWork = nil
	}
	if elemWork == nil {
		elemWork = model.ElementWork(model.NewOps(f))
	} else if len(elemWork) != f.NNZ() {
		panic(fmt.Sprintf("core: element work covers %d elements, factor has %d", len(elemWork), f.NNZ()))
	}
	p := &Partition{F: f, Opts: opts, Relax: stats}
	// The short slices of clusters and rectangles are cut from chunks
	// sized to the matrix, shared across clusters.
	chunk := max(f.N, 64)
	ints, lists := arena[int]{chunk: 4 * chunk}, arena[[]int]{chunk: chunk}
	p.identifyClusters(&arena[Rect]{chunk: chunk / 4})
	p.partitionBlocks(&ints, &lists)
	p.TotalWork = model.TotalWork(elemWork)
	p.mapElements(elemWork)
	p.computeDeps()
	return p
}

// arena hands out sub-slices of shared chunks, so that the many short
// slices a partition holds cost one allocation per chunk, not one each.
type arena[T any] struct {
	chunk int
	free  []T
}

// take returns a zeroed slice of length and capacity n.
func (a *arena[T]) take(n int) []T {
	if n > len(a.free) {
		a.free = make([]T, max(n, a.chunk))
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

// UnitOf returns the unit ID containing factor element (i, j), i >= j.
// It panics if (i, j) is not in the factor structure.
func (p *Partition) UnitOf(i, j int) int {
	f := p.F
	col := f.Col(j)
	lo, hi := 0, len(col)
	for lo < hi {
		mid := (lo + hi) / 2
		if col[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(col) || col[lo] != i {
		panic(fmt.Sprintf("core: element (%d,%d) not in factor", i, j))
	}
	return int(p.ElemUnit[f.ColPtr[j]+lo])
}

// identifyClusters finds the clusters of Section 3.1 from the factor's
// fundamental supernodes, applying the minimum-width rule.
func (p *Partition) identifyClusters(rects *arena[Rect]) {
	f := p.F
	starts := f.Supernodes()
	p.ColCluster = make([]int32, f.N)
	// "No strip of columns less than [width] columns wide is acceptable as
	// a cluster — it is broken up into individual columns."
	single := func(s, e int) bool { return e-s < p.Opts.MinClusterWidth || e-s == 1 }
	count := 0
	for k := 0; k+1 < len(starts); k++ {
		if s, e := starts[k], starts[k+1]; single(s, e) {
			count += e - s
		} else {
			count++
		}
	}
	p.Clusters = make([]Cluster, 0, count)
	for k := 0; k+1 < len(starts); k++ {
		s, e := starts[k], starts[k+1]
		if single(s, e) {
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
		// into contiguous runs. Rows s..e-1 are the triangle.
		below := f.Col(s)[e-s:]
		runs := 0
		for a, r := range below {
			if a == 0 || r != below[a-1]+1 {
				runs++
			}
		}
		cl.Rects = rects.take(runs)[:0]
		for a, r := range below {
			if a == 0 || r != below[a-1]+1 {
				cl.Rects = append(cl.Rects, Rect{RowLo: r})
			}
			cl.Rects[len(cl.Rects)-1].RowHi = r
		}
		p.Clusters = append(p.Clusters, cl)
		for j := s; j < e; j++ {
			p.ColCluster[j] = int32(id)
		}
	}
}

// partitionBlocks splits each cluster's dense blocks into unit blocks
// (Section 3.2).
func (p *Partition) partitionBlocks(ints *arena[int], lists *arena[[]int]) {
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
		cl.BandBounds = splitRange(ints, cl.ColLo, cl.ColHi+1, b)
		cl.TriUnits = ints.take(b)
		cl.BandRects = lists.take(b)
		for bi := 0; bi < b; bi++ {
			lo, hi := cl.BandBounds[bi], cl.BandBounds[bi+1]-1
			// Create the band's rectangles before its triangle: the
			// triangle receives updates from the rectangles to its left
			// (category 8), so unit IDs stay topologically ordered.
			cl.BandRects[bi] = ints.take(bi)
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
		cl.TriAlloc = append(ints.take(b * (b + 1) / 2)[:0], cl.TriUnits...)
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
			r.RowSplits = splitRange(ints, r.RowLo, r.RowHi+1, qr)
			r.ColSplits = splitRange(ints, cl.ColLo, cl.ColHi+1, qc)
			r.Units = lists.take(qr)
			for a := 0; a < qr; a++ {
				r.Units[a] = ints.take(qc)
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

func lastRow(f *symbolic.Factor, j int) int {
	col := f.Col(j)
	return col[len(col)-1]
}

// splitRange divides [lo, hi) into parts near-equal contiguous pieces and
// returns the part boundaries (len parts+1). Earlier pieces receive the
// remainder, making the top bands of a triangle the (slightly) larger ones.
func splitRange(ints *arena[int], lo, hi, parts int) []int {
	n := hi - lo
	if parts > n {
		parts = n
	}
	bounds := ints.take(parts + 1)
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

// gridShape chooses a qr x qc grid with qr <= h, qc <= w and qr*qc <= pd,
// maximizing cell count and preferring near-square cells.
func gridShape(h, w, pd int) (qr, qc int) {
	bestQr, bestQc, bestCells := 1, 1, 1
	var bestAspect float64 = -1
	for c := 1; c <= w && c <= pd; c++ {
		r := pd / c
		if r > h {
			r = h
		}
		cells := r * c
		// Cell aspect ratio distance from square.
		ch := float64(h) / float64(r)
		cw := float64(w) / float64(c)
		aspect := ch / cw
		if aspect < 1 {
			aspect = 1 / aspect
		}
		if cells > bestCells || (cells == bestCells && aspect < bestAspect) {
			bestQr, bestQc, bestCells, bestAspect = r, c, cells, aspect
		}
	}
	return bestQr, bestQc
}

// mapElements assigns every factor nonzero to its unit block and
// accumulates per-unit element counts and work. A cluster is dense on its
// territory, so a column of it is a run of elements per unit it crosses —
// its triangle band, the band rectangles below that, then one grid cell
// per row split of every rectangle — and no element is searched for.
func (p *Partition) mapElements(elemWork []int64) {
	f := p.F
	p.ElemUnit = make([]int32, f.NNZ())
	// assign gives the elements at positions [q, q+count) to unit uid.
	assign := func(uid, q, count int) int {
		u := &p.Units[uid]
		u.Elems += count
		for end := q + count; q < end; q++ {
			p.ElemUnit[q] = int32(uid)
			u.Work += elemWork[q]
		}
		return q
	}
	for ci := range p.Clusters {
		cl := &p.Clusters[ci]
		if cl.Single {
			assign(cl.ColUnit, f.ColPtr[cl.ColLo], f.ColLen(cl.ColLo))
			continue
		}
		cb := 0 // band of column j
		for j := cl.ColLo; j <= cl.ColHi; j++ {
			if j == cl.BandBounds[cb+1] {
				cb++
			}
			q := assign(cl.TriUnits[cb], f.ColPtr[j], cl.BandBounds[cb+1]-j)
			for rb := cb + 1; rb < len(cl.TriUnits); rb++ {
				q = assign(cl.BandRects[rb][cb], q, cl.BandBounds[rb+1]-cl.BandBounds[rb])
			}
			for ri := range cl.Rects {
				r := &cl.Rects[ri]
				c := bandIndex(r.ColSplits, j)
				for a, row := range r.Units {
					q = assign(row[c], q, r.RowSplits[a+1]-r.RowSplits[a])
				}
			}
			if q != f.ColPtr[j+1] {
				panic(fmt.Sprintf("core: column %d of cluster %d is not dense on the cluster's territory", j, cl.ID))
			}
		}
	}
}

// bandIndex locates x within the band boundaries (bounds[k] <= x <
// bounds[k+1]).
func bandIndex(bounds []int, x int) int {
	lo, hi := 0, len(bounds)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if bounds[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
