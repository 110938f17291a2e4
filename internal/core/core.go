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
//     ten categories of Figure 4, found by merge walks and sweeps over the
//     sorted row bands and column classes the partition already holds.
//
// Scheduling of the resulting units is in package sched.
package core

import (
	"fmt"
	"sync"

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

	// The cluster's unit grid as rows by columns, for multi-column
	// clusters: rows are its row bands top to bottom (the triangle bands,
	// then every rectangle's row splits), classes the first columns of its
	// column classes — maximal runs of columns sharing a triangle band and
	// every rectangle's column split — with ColHi+1 last. Every (row band,
	// class) pair at or below the class's own triangle band is one unit
	// (unitAt).
	rows    []rowBand
	classes []int
}

// rowBand is one row band of a multi-column cluster: rows lo..hi, row r
// being at offset r+shift of the cluster's first column. units lists the
// band's units left to right for a rectangle row split (nil for a
// triangle band).
type rowBand struct {
	lo, hi, shift int
	units         []int
}

// unitAt returns the unit of cl holding row band b in the column class
// starting at column x (b.hi >= x): the unit of element (max(b.lo, x), x).
// Column x holds the cluster's territory from row x down, so that element's
// offset in it is its offset in the first column less x-ColLo.
func (p *Partition) unitAt(cl *Cluster, b *rowBand, x int) int32 {
	return p.ElemUnit[p.F.ColPtr[x]-(x-cl.ColLo)+max(b.lo, x)+b.shift]
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
// element-to-unit map and the dependency graph — and, built on first use,
// the read map the fetch attribution of its schedules replays (ReadMap).
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

	readsOnce sync.Once // guards reads, which ReadMap builds once
	reads     *ReadMap
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
	p.partitionBlocks(&ints, &lists, &arena[rowBand]{chunk: chunk / 4})
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
				cl.Rects = append(cl.Rects, Rect{RowLo: int(r)})
			}
			cl.Rects[len(cl.Rects)-1].RowHi = int(r)
		}
		p.Clusters = append(p.Clusters, cl)
		for j := s; j < e; j++ {
			p.ColCluster[j] = int32(id)
		}
	}
}

// partitionBlocks splits each cluster's dense blocks into unit blocks
// (Section 3.2).
func (p *Partition) partitionBlocks(ints *arena[int], lists *arena[[]int], bands *arena[rowBand]) {
	g := p.Opts.Grain
	nu := 0
	for ci := range p.Clusters {
		cl := &p.Clusters[ci]
		if cl.Single {
			nu++
			continue
		}
		b := triangleBands(cl.Width(), g)
		nu += b * (b + 1) / 2
		for ri := range cl.Rects {
			qr, qc := rectGrid(&cl.Rects[ri], cl.Width(), g)
			nu += qr * qc
		}
	}
	p.Units = make([]Unit, 0, nu)
	split := make([]bool, p.F.N+1) // split[x]: a class starts at column x
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
		b := triangleBands(m, g)
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
		// Rectangles below the triangle.
		for ri := range cl.Rects {
			r := &cl.Rects[ri]
			qr, qc := rectGrid(r, m, g)
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
		cl.gridIndex(split, ints, bands)
	}
}

// triangleBands returns the number of bands b of a width-m cluster's
// triangle: the largest with b(b+1)/2 units not exceeding Pd = max(1,
// triangle-elements / g).
func triangleBands(m, g int) int {
	pd := max(m*(m+1)/2/g, 1)
	b := 1
	for (b+1)*(b+2)/2 <= pd && b+1 <= m {
		b++
	}
	return b
}

// rectGrid returns the grid a rectangle below a width-m cluster's triangle
// is cut into: near-square, of at most Pd = max(1, area/g) cells.
func rectGrid(r *Rect, m, g int) (qr, qc int) {
	h := r.RowHi - r.RowLo + 1
	return gridShape(h, m, max(h*m/g, 1))
}

// gridIndex lists the row bands and column classes of a partitioned
// multi-column cluster. In its first column the m triangle rows come
// first, then the rectangles' rows in order. split is all false on entry
// and on return.
func (cl *Cluster) gridIndex(split []bool, ints *arena[int], bands *arena[rowBand]) {
	nb := len(cl.TriUnits)
	for ri := range cl.Rects {
		nb += len(cl.Rects[ri].Units)
	}
	cl.rows = bands.take(nb)[:0]
	for bi := range cl.TriUnits {
		cl.rows = append(cl.rows, rowBand{lo: cl.BandBounds[bi], hi: cl.BandBounds[bi+1] - 1, shift: -cl.ColLo})
	}
	off := cl.Width()
	for ri := range cl.Rects {
		r := &cl.Rects[ri]
		for a, units := range r.Units {
			cl.rows = append(cl.rows, rowBand{lo: r.RowSplits[a], hi: r.RowSplits[a+1] - 1, shift: off - r.RowLo, units: units})
		}
		off += r.RowHi - r.RowLo + 1
	}
	nc := 0
	mark := func(xs []int) {
		for _, x := range xs {
			if !split[x] {
				split[x] = true
				nc++
			}
		}
	}
	mark(cl.BandBounds)
	for ri := range cl.Rects {
		mark(cl.Rects[ri].ColSplits)
	}
	cl.classes = ints.take(nc)[:0]
	for x := cl.ColLo; x <= cl.ColHi+1; x++ {
		if split[x] {
			cl.classes = append(cl.classes, x)
			split[x] = false
		}
	}
}

func lastRow(f *symbolic.Factor, j int) int {
	return int(f.RowInd[f.ColPtr[j+1]-1])
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
