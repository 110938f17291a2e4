package strategy

import (
	"repro/internal/sched"
)

// contiguous assigns work-balanced contiguous column blocks:
// processor k owns the k-th block of consecutive columns, with the block
// boundaries chosen to minimize the bottleneck (the maximum per-block
// work). Contiguous partitions preserve the elimination-tree locality of
// a fill-reducing ordering — a column's row structure points mostly at
// nearby columns — so they trade the wrap mapping's perfect balance for
// far less communication without the paper's partitioning machinery.
func contiguous(sys *Sys, p int, _ Options) (*sched.Schedule, error) {
	bounds := contiguousSplit(sys.columnWork(), p)
	return sched.ColumnMap(sys.F, sys.ElemWork, p, IntervalIndex(sys.F.N, bounds)), nil
}

// contiguousSplit partitions items 0..n-1 into p contiguous blocks
// minimizing the bottleneck (the maximum block work sum), returning the
// block boundaries (length p+1, bounds[k] <= bounds[k+1], bounds[0] = 0,
// bounds[p] = n; trailing blocks may be empty when p > n). It panics on
// p < 1, the shared contract of the split helpers (see
// split.go); Map validates p and returns an error instead.
//
// The optimal bottleneck B* is found by binary search over candidate
// bottleneck values, each probed with a greedy feasibility scan over the
// prefix work sums (can the items be covered by at most p blocks of sum
// <= B?) — the near-linear-time probe scheme of Ahrens (2020), shared
// with optimalBottleneck. The returned split is the greedy left-packed
// partition at B*, which attains the optimum exactly.
func contiguousSplit(work []int64, p int) []int {
	sched.MustProcs("strategy", p)
	n := len(work)
	bounds := make([]int, p+1)
	bounds[p] = n
	if n == 0 {
		return bounds
	}
	b := optimalBottleneck(work, p)
	// Greedy left-packing at the optimal bottleneck b.
	k, cur := 0, int64(0)
	for j, w := range work {
		if cur+w > b && k+1 < p {
			k++
			bounds[k] = j
			cur = 0
		}
		cur += w
	}
	for k++; k < p; k++ {
		bounds[k] = n
	}
	return bounds
}
