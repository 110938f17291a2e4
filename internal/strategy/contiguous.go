package strategy

import (
	"repro/internal/sched"
)

// contiguousMapper assigns work-balanced contiguous column blocks:
// processor k owns the k-th block of consecutive columns, with the block
// boundaries chosen to minimize the bottleneck (the maximum per-block
// work). Contiguous partitions preserve the elimination-tree locality of
// a fill-reducing ordering — a column's row structure points mostly at
// nearby columns — so they trade the wrap mapping's perfect balance for
// far less communication without the paper's partitioning machinery.
type contiguousMapper struct{}

func (contiguousMapper) Name() string { return "contiguous" }

func (contiguousMapper) Map(sys *Sys, p int, opts Options) (*sched.Schedule, error) {
	if err := sched.CheckProcs("strategy", p); err != nil {
		return nil, err
	}
	bounds := ContiguousSplit(sys.ColumnWork(), p)
	return columnSchedule(sys, p, ownersFromBounds(sys.F.N, bounds)), nil
}

// ContiguousSplit partitions items 0..n-1 into p contiguous blocks
// minimizing the bottleneck (the maximum block work sum), returning the
// block boundaries (length p+1, bounds[k] <= bounds[k+1], bounds[0] = 0,
// bounds[p] = n; trailing blocks may be empty when p > n). It panics on
// p < 1, the shared contract of the exported split helpers (see
// split.go); the mappers validate p and return an error instead.
//
// The optimal bottleneck B* is found by binary search over candidate
// bottleneck values, each probed with a greedy feasibility scan over the
// prefix work sums (can the items be covered by at most p blocks of sum
// <= B?) — the near-linear-time probe scheme of Ahrens (2020), shared
// with OptimalBottleneck. The returned split is the greedy left-packed
// partition at B*, which attains the optimum exactly.
func ContiguousSplit(work []int64, p int) []int {
	sched.MustProcs("strategy", p)
	n := len(work)
	bounds := make([]int, p+1)
	bounds[p] = n
	if n == 0 {
		return bounds
	}
	b := OptimalBottleneck(work, p)
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

func init() { Register(contiguousMapper{}) }
