package strategy

import "repro/internal/sched"

// Split-helper contract: the low-level split helpers of this package —
// contiguousSplit, rectilinearCuts and subcubeOwners, and the
// contigtotal DP — all panic on a processor count below one (a programmer
// error, like an out-of-range index), while Map, the one way into the
// strategies wrapping them, validates p first and returns an error, the
// contract CLIs and the repro API rely on. Both halves are the one
// guard in internal/sched (MustProcs and CheckProcs) under this package's
// prefix.

// prefixWork returns the inclusive-exclusive prefix sums of work:
// pre[j] = work[0] + ... + work[j-1], so a contiguous block [i, j) has
// work pre[j] - pre[i].
func prefixWork(work []int64) []int64 {
	pre := make([]int64, len(work)+1)
	for j, w := range work {
		pre[j+1] = pre[j] + w
	}
	return pre
}

// optimalBottleneck returns the minimal achievable maximum block work of
// any partition of the items into at most p contiguous blocks — the
// bottleneck B* that contiguousSplit attains and the work bound
// contigtotal constrains its blocks by. Found by binary search
// over candidate bottlenecks, each probed with a greedy feasibility scan
// (Ahrens 2020's probe). It panics on p < 1 (the contract above).
func optimalBottleneck(work []int64, p int) int64 {
	sched.MustProcs("strategy", p)
	var lo, hi int64 // lo = max item (any block must hold it), hi = total
	for _, w := range work {
		if w > lo {
			lo = w
		}
		hi += w
	}
	feasible := func(b int64) bool {
		blocks, cur := 1, int64(0)
		for _, w := range work {
			if cur+w > b {
				blocks++
				if blocks > p {
					return false
				}
				cur = 0
			}
			cur += w
		}
		return true
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// IntervalIndex expands interval boundaries (length k+1, as the split
// helpers and rectilinearCuts return them) into the interval of every index
// in [0, n): i lies in interval k when bounds[k] <= i < bounds[k+1]. It is
// a contiguous split's column-to-processor assignment and a 2D tiling's
// block map.
func IntervalIndex(n int, bounds []int) []int32 {
	of := make([]int32, n)
	for k := 0; k+1 < len(bounds); k++ {
		for i := bounds[k]; i < bounds[k+1]; i++ {
			of[i] = int32(k)
		}
	}
	return of
}
