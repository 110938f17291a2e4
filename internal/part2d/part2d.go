// Package part2d is the 2D tile-ownership subsystem: it generalizes the
// repository's 1D schedules (whole block columns owned by one processor)
// to schedules that assign each (rowBlock, colBlock) tile of a shared
// diagonal interval structure to a processor.
//
// The paper's central claim is that the *shape* of a partition — not just
// its balance — determines communication. Every 1D strategy flattens the
// shape back to column ownership; symmetric rectilinear partitioning
// (Yasar et al. 2020) in particular computes a genuinely 2D tiling and
// then discards it. This package keeps the tiling: a Schedule2D carries
// the shared row/column interval boundaries and one owner per
// lower-triangle tile, and the package mirrors the whole 1D measurement
// stack at tile granularity:
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
//     simulators are bit-identical to the 1D ones there.
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
	"fmt"

	"repro/internal/sched"
	"repro/internal/symbolic"
)

// Schedule2D assigns every lower-triangle tile of a shared diagonal
// interval structure to a processor. The intervals tile the symmetric
// factor structure: factor element (i, j) belongs to the tile formed by
// i's interval (its row block) and j's interval (its column block); the
// factor is lower triangular and the intervals are shared by rows and
// columns, so row block >= column block always and only the R(R+1)/2
// lower-triangle tiles exist.
type Schedule2D struct {
	P int
	// Bounds holds the shared diagonal interval boundaries, length R+1
	// with Bounds[0] = 0 and Bounds[R] = n; interval r is
	// [Bounds[r], Bounds[r+1]) and is never empty.
	Bounds []int
	// Owner maps each lower-triangle tile to its processor, packed row by
	// row: tile (r, c) with c <= r lives at index r(r+1)/2 + c.
	Owner []int32
	// BlockOf[i] is the diagonal interval of index i.
	BlockOf []int32
	// Work is the total factorization work owned by each processor.
	Work []int64
	// ElemProc is the derived element ownership: ElemProc[q] is the owner
	// of the tile containing factor nonzero q, the granularity at which
	// the traffic simulators deduplicate fetches.
	ElemProc []int32
}

// R returns the number of diagonal intervals (the tiling is R x R).
func (s *Schedule2D) R() int { return len(s.Bounds) - 1 }

// Tiles returns the number of lower-triangle tiles, R(R+1)/2.
func (s *Schedule2D) Tiles() int { r := s.R(); return r * (r + 1) / 2 }

// TileID returns the packed index of tile (r, c); c <= r is required.
func TileID(r, c int) int { return r*(r+1)/2 + c }

// TileOwner returns the processor owning tile (r, c).
func (s *Schedule2D) TileOwner(r, c int) int32 { return s.Owner[TileID(r, c)] }

// Imbalance returns the paper's load imbalance factor A over the tile
// ownership's per-processor work.
func (s *Schedule2D) Imbalance() float64 { return sched.ImbalanceOf(s.Work) }

// Schedule bridges to the 1D schedule type over the derived element
// ownership, so every element-granular 1D simulator (traffic.Simulate in
// particular) evaluates the 2D assignment unchanged. The returned
// schedule aliases the receiver's ElemProc and Work slices.
func (s *Schedule2D) Schedule() *sched.Schedule {
	return &sched.Schedule{P: s.P, ElemProc: s.ElemProc, Work: s.Work}
}

// New validates and completes a 2D schedule: bounds must be strictly
// increasing from 0 to f.N, owner must cover the R(R+1)/2 lower-triangle
// tiles with processors in [0, p). The derived fields (BlockOf, ElemProc,
// Work) are computed from the factor structure and elemWork.
func New(f *symbolic.Factor, elemWork []int64, p int, bounds []int, owner []int32) (*Schedule2D, error) {
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
	if len(owner) != r*(r+1)/2 {
		return nil, fmt.Errorf("part2d: %d tile owners for %d tiles", len(owner), r*(r+1)/2)
	}
	for t, o := range owner {
		if o < 0 || int(o) >= p {
			return nil, fmt.Errorf("part2d: tile %d owned by out-of-range processor %d", t, o)
		}
	}
	s := &Schedule2D{
		P:       p,
		Bounds:  append([]int(nil), bounds...),
		Owner:   append([]int32(nil), owner...),
		BlockOf: blockIndex(f.N, bounds),
		Work:    make([]int64, p),
	}
	s.ElemProc = make([]int32, f.NNZ())
	for j := 0; j < f.N; j++ {
		c := int(s.BlockOf[j])
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			proc := s.Owner[TileID(int(s.BlockOf[f.RowInd[q]]), c)]
			s.ElemProc[q] = proc
			s.Work[proc] += elemWork[q]
		}
	}
	return s, nil
}

// blockIndex expands interval boundaries into a per-index interval map.
func blockIndex(n int, bounds []int) []int32 {
	blockOf := make([]int32, n)
	for k := 0; k+1 < len(bounds); k++ {
		for i := bounds[k]; i < bounds[k+1]; i++ {
			blockOf[i] = int32(k)
		}
	}
	return blockOf
}

// TileWork accumulates elemWork per lower-triangle tile of the interval
// structure: element (i, j) is charged to tile (blockOf(i), blockOf(j)).
// This is the load vector the rect2d LPT owner assignment balances.
func TileWork(f *symbolic.Factor, elemWork []int64, bounds []int) []int64 {
	blockOf := blockIndex(f.N, bounds)
	r := len(bounds) - 1
	tw := make([]int64, r*(r+1)/2)
	for j := 0; j < f.N; j++ {
		c := int(blockOf[j])
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			tw[TileID(int(blockOf[f.RowInd[q]]), c)] += elemWork[q]
		}
	}
	return tw
}
