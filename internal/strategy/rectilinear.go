package strategy

import (
	"repro/internal/model"
	"repro/internal/sched"
)

// rectilinearMapper implements symmetric rectilinear block partitioning
// (Yasar, Rajamanickam et al. 2020, "On Symmetric Rectilinear Matrix
// Partitioning"): one set of diagonal intervals is shared by the rows
// and the columns of the symmetric factor structure, tiling it into
// p(p+1)/2 lower-triangle blocks whose maximum work the partitioner
// minimizes. The cuts are found by binary search over a greedy probe
// (the 1D prefix-sum probe of the contiguous split, lifted to 2D): the
// probe grows each diagonal interval row by row, charging every factor
// element (x, k) to the tile formed by x's interval and k's interval,
// and closes the interval just before any tile would exceed the
// candidate bound. Each diagonal block's columns then go to one
// processor, so the 1D column schedule inherits the symmetric block
// structure: processor t owns the whole block column under tile (t, t),
// and every non-local fetch crosses one of the shared cut lines.
type rectilinearMapper struct{}

func (rectilinearMapper) Name() string { return "rectilinear" }

func (rectilinearMapper) Map(sys *Sys, p int, opts Options) (*sched.Schedule, error) {
	if err := sched.CheckProcs("strategy", p); err != nil {
		return nil, err
	}
	bounds := RectilinearCuts(sys.Ops, sys.ElemWork, p)
	return columnSchedule(sys, p, ownersFromBounds(sys.F.N, bounds)), nil
}

func init() { Register(rectilinearMapper{}) }

// RectilinearCuts computes the shared row/column interval boundaries of
// a symmetric rectilinear partition into at most p diagonal intervals,
// minimizing (over the greedy probe's reachable splits) the maximum
// work of the induced lower-triangle tiles: factor element (i, j)
// belongs to the tile formed by i's interval and j's interval, weighted
// by elemWork. The boundaries come back in ContiguousSplit's format
// (length p+1, bounds[0] = 0, bounds[p] = n, trailing intervals empty
// when fewer than p are needed). It panics on p < 1, the shared
// contract of the exported split helpers (see split.go).
//
// The bound is refined by binary search: a candidate tile bound B is
// probed by growing intervals greedily (close an interval just before
// any of its tiles would exceed B) and is feasible when at most p
// intervals cover all n indices. The search keeps the cuts of the
// smallest feasible bound.
func RectilinearCuts(ops *model.Ops, elemWork []int64, p int) []int {
	sched.MustProcs("strategy", p)
	n := ops.F.N
	bounds := make([]int, p+1)
	bounds[p] = n
	if n == 0 {
		return bounds
	}
	var total int64
	for _, w := range elemWork {
		total += w
	}
	var best []int
	lo, hi := int64(0), total
	for lo < hi {
		mid := lo + (hi-lo)/2
		if cuts, ok := rectProbe(ops, elemWork, p, mid); ok {
			best = cuts
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if best == nil {
		// hi = total is always feasible (a single interval holds all
		// work), so the search can only land here if it never probed a
		// feasible bound below it.
		best, _ = rectProbe(ops, elemWork, p, total)
	}
	copy(bounds, best)
	for k := len(best); k < p; k++ {
		bounds[k] = n
	}
	return bounds
}

// rectProbe greedily grows diagonal intervals under the tile-work bound
// b, returning the cut positions (0, c1, ..., n) and whether at most p
// intervals sufficed. Adding index x to the current interval t charges
// the diagonal element (x, x) to tile (t, t) and every off-diagonal row
// entry (x, k) to tile (t, interval(k)); if any tile would exceed b the
// interval is closed at x and x retried as the start of the next one. A
// single index overflowing a fresh interval makes the *probe* give up —
// under the cuts it already committed to; a different placement of the
// earlier cuts could split the offending source interval and spread the
// row's charges below b, which is why the probe is a greedy heuristic
// and the binary search around it settles on the smallest bound the
// probe can certify, not a proven optimum (the brute-force test pins
// that the two coincide on its instance set).
func rectProbe(ops *model.Ops, elemWork []int64, p int, b int64) ([]int, bool) {
	f := ops.F
	n := f.N
	ivl := make([]int32, n)     // interval of each accepted index
	tile := make([]int64, p)    // loads of tiles (t, u), u <= t, current t
	addLoad := make([]int64, p) // scratch: tentative additions per u
	touched := make([]int32, 0, p)
	cuts := make([]int, 1, p+1) // cuts[0] = 0
	t, s := 0, 0                // current interval index and start
	for x := 0; x < n; x++ {
		for attempt := 0; ; attempt++ {
			cols := ops.RowCols(x)
			pos := ops.RowPositions(x)
			addLoad[t] = elemWork[f.ColPtr[x]] // diagonal -> tile (t, t)
			touched = append(touched[:0], int32(t))
			for i, k := range cols {
				u := ivl[k]
				if addLoad[u] == 0 {
					touched = append(touched, u)
				}
				addLoad[u] += elemWork[pos[i]]
			}
			fits := true
			for _, u := range touched {
				if tile[u]+addLoad[u] > b {
					fits = false
				}
			}
			if fits {
				for _, u := range touched {
					tile[u] += addLoad[u]
					addLoad[u] = 0
				}
				ivl[x] = int32(t)
				break
			}
			for _, u := range touched {
				addLoad[u] = 0
			}
			if x == s || attempt > 0 {
				return nil, false // a lone index overflows the bound
			}
			if t+1 >= p {
				return nil, false // out of intervals
			}
			// Close interval t just before x and retry x as the start of
			// interval t+1 (its off-diagonal charges move to the tiles of
			// the new row, so they must be recomputed).
			cuts = append(cuts, x)
			t++
			s = x
			for u := range tile {
				tile[u] = 0
			}
		}
	}
	cuts = append(cuts, n)
	return cuts, true
}
