// Package part2d is the 2D tile-ownership subsystem: it generalizes the
// repository's 1D schedules (whole block columns owned by one processor)
// to schedules that assign each (rowBlock, colBlock) tile of a shared
// diagonal interval structure to a processor. A schedule is fully given by
// its interval cuts and one owner per non-empty tile, and only this
// package builds one.
//
// The paper's central claim is that the *shape* of a partition — not just
// its balance — determines communication. Every 1D strategy flattens the
// shape back to column ownership; symmetric rectilinear partitioning
// (Yasar et al. 2020) in particular computes a genuinely 2D tiling and
// then discards it. This package keeps the tiling: a Schedule2D carries
// the shared row/column interval boundaries and one owner per
// lower-triangle tile that holds a factor nonzero (an empty tile costs
// nothing), and the package mirrors the whole 1D measurement stack at tile
// granularity:
//
//   - Traffic: the fan-out/fan-in data-traffic simulator. Fetches of pair
//     -update sources (i, k) travel along the row of tiles of the target's
//     row block (the fan-out of panel column k to the tile owners of block
//     row block(i)); fetches of sources (j, k) and of the diagonal travel
//     along the column of tiles of the target's column block (the fan-in
//     toward the diagonal-block owner of column block block(j)). The
//     per-tile volumes sum exactly to the deduplicated total of
//     traffic.Simulate over the derived element ownership — the 2D
//     analogue of the traffic.ColumnRefs / Simulate identity.
//   - Tasks: the merged tile-segment task graph for the comm-aware
//     makespan simulators. On a column-granular tiling (every tile of a
//     block column sharing one owner — the col2d lift of any 1D strategy)
//     the graph collapses to exactly the 1D column task graph, so the 2D
//     simulators are bit-identical to the 1D ones there. Tasks reads that
//     case off the tile owners in O(tiles) and returns the 1D graph, and
//     FetchStats the closed-form fetch attribution. On any other schedule
//     the graph, FetchStats and Traffic are one pass over the row-block
//     segments the tile index cuts the factor's columns into — one visit
//     per segment a run reads, not per update — with answers identical to
//     the update walk's, which stays the test oracle.
//   - A Mapper2D registry (Register2D/Map2D) seeded with rect2d (tiles
//     from the rectilinear cuts, owners by a traffic-guarded descent from
//     the column-flattened assignment, never exceeding its traffic),
//     rect2dlpt (the same tiles, owners by greedy tile-work LPT),
//     rect2dcyclic (owners by 2D wrap over a processor grid) and col2d
//     (any registered column-granular 1D strategy lifted to a tiling
//     whose block columns it owns — the bridge that makes every existing
//     mapper comparable in the 2D simulators).
//
// This is the architectural step that opens 2D algorithms (block-cyclic
// 2D, subcube-2D) as drop-ins: a new Mapper2D registers itself and
// immediately appears in the repro API, cmd/sweep -kind tile2d,
// cmd/paperbench -table tile2d and the Ext-T tables.
package part2d

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sched"
	"repro/internal/strategy"
	"repro/internal/symbolic"
)

// Schedule2D assigns every structurally non-empty lower-triangle tile of a
// shared diagonal interval structure to a processor. The intervals tile
// the symmetric factor structure: factor element (i, j) belongs to the
// tile formed by i's interval (its row block) and j's interval (its column
// block); the factor is lower triangular and the intervals are shared by
// rows and columns, so row block >= column block always. Of the R(R+1)/2
// lower-triangle tiles only those holding a factor nonzero are stored — at
// most nnz(L) of them — so a schedule costs O(nnz(L) + R) whatever R is (a
// col2d lift of wrap has R = n).
//
// A schedule is valid by construction: New, Lift and the registered
// mappers are its only constructors, and each puts every element on its
// tile's owner. Tasks, FetchStats and Traffic read the tile owners and
// re-check none of that.
type Schedule2D struct {
	P int
	// bounds holds the shared diagonal interval boundaries, length R+1
	// with bounds[0] = 0 and bounds[R] = n; interval r is
	// [bounds[r], bounds[r+1]) and is never empty.
	bounds []int
	// tilePtr and tileRow index the non-empty tiles, CSR over block
	// columns: block column c's tiles are t in [tilePtr[c], tilePtr[c+1]),
	// their row blocks tileRow[t] ascending, the diagonal tile (c, c)
	// first (it always holds the diagonal).
	tilePtr []int32
	tileRow []int32
	// owner[t] is the processor owning tile t.
	owner []int32
	// blockOf[i] is the diagonal interval of index i.
	blockOf []int32
	// work is the total factorization work owned by each processor.
	work []int64
	// elemProc is the derived element ownership: elemProc[q] is the owner
	// of the tile containing factor nonzero q, the granularity at which
	// the traffic simulators deduplicate fetches.
	elemProc []int32
}

// R returns the number of diagonal intervals (the tiling is R x R).
func (s *Schedule2D) R() int { return len(s.bounds) - 1 }

// Tiles returns the number of non-empty tiles, at most nnz(L).
func (s *Schedule2D) Tiles() int { return len(s.owner) }

// TileOwner returns the processor owning tile (r, c), or -1 when the tile
// holds no factor nonzero (an empty tile has no owner) or lies outside the
// lower triangle 0 <= c <= r < R.
func (s *Schedule2D) TileOwner(r, c int) int32 {
	if c < 0 || c > r || r >= s.R() {
		return -1
	}
	if t, ok := findTile(s.tilePtr, s.tileRow, r, c); ok {
		return s.owner[t]
	}
	return -1
}

// findTile returns the index of tile (r, c) in the index (ptr, row), and
// whether the tile is there (non-empty).
func findTile(ptr, row []int32, r, c int) (int, bool) {
	lo := int(ptr[c])
	k, ok := slices.BinarySearch(row[lo:ptr[c+1]], int32(r))
	return lo + k, ok
}

// Imbalance returns the paper's load imbalance factor A over the tile
// ownership's per-processor work.
func (s *Schedule2D) Imbalance() float64 { return sched.ImbalanceOf(s.work) }

// Schedule bridges to the 1D schedule type over the derived element
// ownership, so every element-granular 1D simulator (traffic.Simulate in
// particular) evaluates the 2D assignment unchanged. The returned
// schedule aliases the receiver's element ownership and work slices.
func (s *Schedule2D) Schedule() *sched.Schedule {
	return &sched.Schedule{P: s.P, ElemProc: s.elemProc, Work: s.work}
}

// New validates and completes a 2D schedule: bounds must be strictly
// increasing from 0 to f.N, and owner(r, c) — consulted once for every
// non-empty tile (r, c) and for no other — must name a processor in
// [0, p). The derived fields (the tile index, the interval of every
// index, the element ownership, the per-processor work) are computed from
// the factor structure and elemWork.
func New(f *symbolic.Factor, elemWork []int64, p int, bounds []int, owner func(r, c int) int32) (*Schedule2D, error) {
	if err := sched.CheckProcs("part2d", p); err != nil {
		return nil, err
	}
	r := len(bounds) - 1
	if r < 0 || bounds[0] != 0 || bounds[r] != f.N {
		return nil, fmt.Errorf("part2d: bounds must run from 0 to %d", f.N)
	}
	for k := 0; k < r; k++ {
		if bounds[k] >= bounds[k+1] {
			return nil, fmt.Errorf("part2d: bounds not strictly increasing at %d", k)
		}
	}
	tl := newTiling(f, bounds)
	own := make([]int32, len(tl.row))
	for c := 0; c < r; c++ {
		for t := tl.ptr[c]; t < tl.ptr[c+1]; t++ {
			o := owner(int(tl.row[t]), c)
			if o < 0 || int(o) >= p {
				return nil, fmt.Errorf("part2d: tile (%d, %d) owned by out-of-range processor %d", tl.row[t], c, o)
			}
			own[t] = o
		}
	}
	return newSchedule(f, elemWork, p, bounds, tl, own), nil
}

// newSchedule completes a schedule over the tiling of bounds from one
// in-range owner per tile.
func newSchedule(f *symbolic.Factor, elemWork []int64, p int, bounds []int, tl *tiling, owner []int32) *Schedule2D {
	s := &Schedule2D{
		P:        p,
		bounds:   slices.Clone(bounds),
		tilePtr:  tl.ptr,
		tileRow:  tl.row,
		owner:    owner,
		blockOf:  tl.blockOf,
		work:     make([]int64, p),
		elemProc: make([]int32, f.NNZ()),
	}
	for q, t := range tl.elemTile {
		proc := owner[t]
		s.elemProc[q] = proc
		s.work[proc] += elemWork[q]
	}
	return s
}

// tiling is the non-empty tile index of a diagonal interval structure in
// Schedule2D's layout (ptr, row), plus the tile of every factor nonzero.
// Building it is O(nnz(L) + R) time and space.
type tiling struct {
	blockOf  []int32
	ptr, row []int32
	elemTile []int32
}

func newTiling(f *symbolic.Factor, bounds []int) *tiling {
	r := len(bounds) - 1
	tl := &tiling{blockOf: strategy.IntervalIndex(f.N, bounds), ptr: make([]int32, r+1)}
	// Two passes over each block column's elements, so the row index is
	// allocated once at its size: count the distinct row blocks, then list
	// them. seen[rb] holds the last pass's key (c+1 counting, -(c+1)
	// listing) that met row block rb.
	seen := make([]int32, r)
	rowBlocks := func(c int, key int32, fn func(rb int32)) {
		for _, i := range f.RowInd[f.ColPtr[bounds[c]]:f.ColPtr[bounds[c+1]]] {
			if rb := tl.blockOf[i]; seen[rb] != key {
				seen[rb] = key
				fn(rb)
			}
		}
	}
	for c := 0; c < r; c++ {
		tl.ptr[c+1] = tl.ptr[c]
		rowBlocks(c, int32(c+1), func(int32) { tl.ptr[c+1]++ })
	}
	tl.row = make([]int32, 0, tl.ptr[r])
	for c := 0; c < r; c++ {
		rowBlocks(c, -int32(c+1), func(rb int32) { tl.row = append(tl.row, rb) })
		slices.Sort(tl.row[tl.ptr[c]:])
	}
	// The tile of every element. A block column's elements are the
	// contiguous positions of its columns, so one R-entry slot (slot[rb]
	// the tile of row block rb in block column c; seen's storage, done
	// with) serves every block column in turn.
	slot := seen
	tl.elemTile = make([]int32, f.NNZ())
	for c := 0; c < r; c++ {
		for t := tl.ptr[c]; t < tl.ptr[c+1]; t++ {
			slot[tl.row[t]] = t
		}
		for q := f.ColPtr[bounds[c]]; q < f.ColPtr[bounds[c+1]]; q++ {
			tl.elemTile[q] = slot[tl.blockOf[f.RowInd[q]]]
		}
	}
	return tl
}

// work accumulates elemWork per tile: element (i, j) is charged to tile
// (blockOf(i), blockOf(j)). This is the load vector the rect2d descent
// orders its trials by and the LPT owner assignment balances.
func (tl *tiling) work(elemWork []int64) []int64 {
	tw := make([]int64, len(tl.row))
	for q, t := range tl.elemTile {
		tw[t] += elemWork[q]
	}
	return tw
}

// heaviestFirst sorts tile ids by work, heaviest first, ties in row-major
// (row block, then column block) order — the order of the packed
// lower-triangle index the mappers once sorted a dense table by. Empty
// tiles are not in the index; where they would have sorted is the
// callers' business (rect2dlpt, trafficGuardedOwners).
func (tl *tiling) heaviestFirst(ids []int32, tw []int64) {
	slices.SortFunc(ids, func(a, b int32) int {
		switch {
		case tw[a] != tw[b]:
			return cmp.Compare(tw[b], tw[a])
		case tl.row[a] != tl.row[b]:
			return cmp.Compare(tl.row[a], tl.row[b])
		}
		return cmp.Compare(tl.col(a), tl.col(b))
	})
}

// col returns the block column of tile t (every block column has at least
// its diagonal tile, so ptr is strictly increasing).
func (tl *tiling) col(t int32) int {
	c, _ := slices.BinarySearch(tl.ptr, t+1)
	return c - 1
}
