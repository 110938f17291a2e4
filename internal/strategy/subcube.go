package strategy

import (
	"sort"

	"repro/internal/sched"
	"repro/internal/symbolic"
)

// subcubeMapper implements subtree-to-subcube allocation over the
// elimination tree (George/Liu/Ng's scheme, generalized to arbitrary
// processor counts by Pothen & Sun's proportional mapping): the whole
// processor set starts at the top of the tree, the shared top separator
// columns are wrap-mapped across all of its owners, and at every
// branching the set splits over the sibling subtrees proportionally to
// their subtree work. Once a subtree's set is a single processor, the
// entire subtree is local to it. Under a nested-dissection (or any
// fill-reducing) ordering this is the mapping the paper credits for the
// block scheme's locality at scale: independent subtrees never share
// owners, so their factorization communicates nothing.
type subcubeMapper struct{}

func (subcubeMapper) Name() string { return "subcube" }

func (subcubeMapper) Map(sys *Sys, p int, opts Options) (*sched.Schedule, error) {
	if err := sched.CheckProcs("strategy", p); err != nil {
		return nil, err
	}
	owner := SubcubeOwners(sys.F.Parent, sys.ColumnWork(), p)
	return columnSchedule(sys, p, owner), nil
}

func init() { Register(subcubeMapper{}) }

// SubcubeOwners computes the subtree-to-subcube column-to-processor
// assignment for an elimination forest (Parent convention of
// symbolic.EliminationTree) with per-column work weights. Every column
// gets an owner in [0, p); with p greater than the number of columns the
// surplus processors are simply left idle, which keeps the schedule well
// formed at any scale. It panics on p < 1, the shared contract of the
// exported split helpers (see split.go).
func SubcubeOwners(parent []int, colWork []int64, p int) []int32 {
	sched.MustProcs("strategy", p)
	children := symbolic.Children(parent)
	sub := symbolic.SubtreeSums(parent, colWork)
	owner := make([]int32, len(parent))

	// assignAll gives every column of the subtrees rooted at nodes to one
	// processor (the single-owner base case), iteratively to keep the
	// stack flat on chain-shaped trees.
	assignAll := func(nodes []int, proc int32) {
		stack := append([]int(nil), nodes...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			owner[v] = proc
			stack = append(stack, children[v]...)
		}
	}

	// assign maps the sibling subtrees rooted at nodes onto processors
	// [lo, hi).
	var assign func(nodes []int, lo, hi int)
	assign = func(nodes []int, lo, hi int) {
		if len(nodes) == 0 {
			return
		}
		if hi-lo == 1 {
			assignAll(nodes, int32(lo))
			return
		}
		// Peel the shared top separator: while the forest is a single
		// chain, its columns belong to every processor of the set; wrap
		// them across [lo, hi).
		wrapped := 0
		for len(nodes) == 1 {
			owner[nodes[0]] = int32(lo + wrapped%(hi-lo))
			wrapped++
			nodes = children[nodes[0]]
		}
		if len(nodes) == 0 {
			return
		}
		// A branching with at least two sibling subtrees and at least two
		// processors: split the set proportionally to subtree work.
		if hi-lo >= len(nodes) {
			splitProportional(nodes, sub, lo, hi, assign)
			return
		}
		// Fewer processors than subtrees: pack whole subtrees onto the
		// least-loaded processor of the set, heaviest first.
		packGreedy(nodes, sub, lo, hi, assignAll)
	}
	assign(symbolic.Roots(parent), 0, p)
	return owner
}

// splitProportional hands each of the k sibling subtrees a contiguous
// slice of [lo, hi), at least one processor each, with the surplus
// distributed by largest remainder of the subtrees' work shares (ties to
// the lower node index, keeping the split deterministic).
func splitProportional(nodes []int, sub []int64, lo, hi int, assign func(nodes []int, lo, hi int)) {
	k := len(nodes)
	extra := (hi - lo) - k
	var totW int64
	for _, v := range nodes {
		totW += sub[v]
	}
	counts := make([]int, k)
	rem := make([]int64, k)
	given := 0
	for i, v := range nodes {
		w := sub[v]
		if totW == 0 {
			w = 1 // degenerate zero-work forest: split evenly
		}
		div := totW
		if div == 0 {
			div = int64(k)
		}
		share := int64(extra) * w
		counts[i] = 1 + int(share/div)
		rem[i] = share % div
		given += counts[i] - 1
	}
	for given < extra {
		best := 0
		for i := 1; i < k; i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		given++
	}
	at := lo
	for i, v := range nodes {
		assign([]int{v}, at, at+counts[i])
		at += counts[i]
	}
}

// packGreedy assigns each whole subtree to the currently least-loaded
// processor of [lo, hi), visiting subtrees in decreasing work order (the
// classical LPT rule), for the case where subtrees outnumber processors.
func packGreedy(nodes []int, sub []int64, lo, hi int, assignAll func(nodes []int, proc int32)) {
	order := append([]int(nil), nodes...)
	sort.Slice(order, func(a, b int) bool {
		if sub[order[a]] != sub[order[b]] {
			return sub[order[a]] > sub[order[b]]
		}
		return order[a] < order[b]
	})
	load := make([]int64, hi-lo)
	for _, v := range order {
		best := sched.LeastLoaded(load)
		load[best] += sub[v]
		assignAll([]int{v}, int32(lo+best))
	}
}
