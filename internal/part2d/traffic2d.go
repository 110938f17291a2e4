package part2d

import "repro/internal/model"

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
	// (the schedule's tile index: block column by block column, row
	// blocks ascending, as Schedule2D stores them).
	FanOut []int64
	// FanIn[t] counts the column-direction fetches attributed to tile t.
	FanIn []int64
	// PerProc[p] is the traffic charged to processor p (its fetches).
	PerProc []int64
}

// TotalFanOut sums the row-direction volumes over all tiles.
func (r *TrafficResult) TotalFanOut() int64 { return model.TotalWork(r.FanOut) }

// TotalFanIn sums the column-direction volumes over all tiles.
func (r *TrafficResult) TotalFanIn() int64 { return model.TotalWork(r.FanIn) }

// Mean returns the mean traffic per processor.
func (r *TrafficResult) Mean() float64 { return float64(r.Total) / float64(r.P) }

// Traffic runs the 2D tile-granular traffic simulation. The factor ops
// must be built over the same symbolic factor the schedule was computed
// from. It is the segment pass of Tasks and FetchStats (see segments),
// O(nnz(L) + segment visits), with every segment's fetches charged to its
// tile, found in the tile index.
func Traffic(ops *model.Ops, s *Schedule2D) *TrafficResult {
	res := &TrafficResult{
		P:       s.P,
		R:       s.R(),
		FanOut:  make([]int64, len(s.owner)),
		FanIn:   make([]int64, len(s.owner)),
		PerProc: make([]int64, s.P),
	}
	sg := tileSegments(ops.F, s)
	out, in := make([]int64, len(sg.block)), make([]int64, len(sg.block))
	sg.fetches(ops.F, s.P, out, in, nil, nil)
	for j := 0; j+1 < len(sg.col); j++ {
		for u := sg.col[j]; u < sg.col[j+1]; u++ {
			t, _ := findTile(s.tilePtr, s.tileRow, int(sg.block[u]), int(s.blockOf[j]))
			res.FanOut[t] += out[u]
			res.FanIn[t] += in[u]
			res.PerProc[sg.proc[u]] += out[u] + in[u]
		}
	}
	res.Total = model.TotalWork(res.PerProc)
	return res
}
