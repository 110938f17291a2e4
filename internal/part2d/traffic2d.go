package part2d

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/traffic"
)

// TrafficResult is the outcome of the 2D tile-granular data-traffic
// simulation. The deduplication rule is exactly traffic.Simulate's — one
// unit per distinct (processor, non-local element) first fetch — but each
// fetch is additionally attributed to the tile of the target element that
// first required it and classified by the direction it travels:
//
//   - FanOut: the fetched element is a pair-update source (i, k) whose
//     tile shares the target tile's *row* block — the fan-out of panel
//     column k's segment to the tile owners along block row block(i).
//   - FanIn: the fetched element is a pair-update source (j, k) or the
//     scaling diagonal (j, j), whose tile's row block equals the target
//     tile's *column* block — data converging along the column of tiles of
//     block column block(j), toward its diagonal-block owner.
//
// Every first fetch is classified exactly one way, so
// sum(FanOut) + sum(FanIn) == Total == traffic.Simulate(ops,
// s.Schedule()).Total — the 2D analogue of the traffic.ColumnRefs /
// Simulate identity, pinned by the conservation tests.
type TrafficResult struct {
	P int
	// R is the number of diagonal intervals of the schedule's tiling.
	R int
	// Total is the system-wide deduplicated data traffic.
	Total int64
	// FanOut[t] counts the row-direction fetches attributed to tile t
	// (packed lower-triangle index, see TileID).
	FanOut []int64
	// FanIn[t] counts the column-direction fetches attributed to tile t.
	FanIn []int64
	// PerProc[p] is the traffic charged to processor p (its fetches).
	PerProc []int64
}

// TotalFanOut sums the row-direction volumes over all tiles.
func (r *TrafficResult) TotalFanOut() int64 { return sum(r.FanOut) }

// TotalFanIn sums the column-direction volumes over all tiles.
func (r *TrafficResult) TotalFanIn() int64 { return sum(r.FanIn) }

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the mean traffic per processor.
func (r *TrafficResult) Mean() float64 { return float64(r.Total) / float64(r.P) }

// Traffic runs the 2D tile-granular traffic simulation. The factor ops
// must be built over the same symbolic factor the schedule was computed
// from.
func Traffic(ops *model.Ops, s *Schedule2D) *TrafficResult {
	f := ops.F
	nnz := f.NNZ()
	if len(s.ElemProc) != nnz {
		panic(fmt.Sprintf("part2d: schedule covers %d elements, factor has %d", len(s.ElemProc), nnz))
	}
	res := &TrafficResult{
		P:       s.P,
		R:       s.R(),
		FanOut:  make([]int64, s.Tiles()),
		FanIn:   make([]int64, s.Tiles()),
		PerProc: make([]int64, s.P),
	}
	// A first fetch is charged to the tile of the target that required it.
	// Source (i, k) sits in tile (block(i), block(k)) — the target's row of
	// tiles, a fan-out; source (j, k) and the scaling diagonal (j, j) sit
	// in the target's column of tiles, a fan-in.
	fetched := traffic.NewFetchDedup(s.P, nnz)
	owner, rowInd := s.ElemProc, f.RowInd
	charge := func(dir []int64, tile int, proc int32) {
		res.Total++
		res.PerProc[proc]++
		dir[tile]++
	}
	ops.ForEachRun(func(r model.Run) {
		c := int(s.BlockOf[r.Col])
		lo, ownerLo := r.Lo, owner[r.Lo]
		for q := lo; q < r.Hi; q++ {
			i := rowInd[q]
			proc := owner[r.Tgt[i]]
			if owner[q] != proc && fetched.FirstFetch(q, proc) {
				charge(res.FanOut, TileID(int(s.BlockOf[i]), c), proc)
			}
			if ownerLo != proc && fetched.FirstFetch(lo, proc) {
				charge(res.FanIn, TileID(int(s.BlockOf[i]), c), proc)
			}
		}
	})
	for j := 0; j < f.N; j++ {
		c := int(s.BlockOf[j])
		diag := int32(f.ColPtr[j])
		for q := diag + 1; q < int32(f.ColPtr[j+1]); q++ {
			if proc := owner[q]; owner[diag] != proc && fetched.FirstFetch(diag, proc) {
				charge(res.FanIn, TileID(int(s.BlockOf[rowInd[q]]), c), proc)
			}
		}
	}
	return res
}
