package symbolic

// Elimination-forest utilities shared by consumers that walk the tree as
// a tree (rather than through the factor structure): the nested-dissection
// aware subtree-to-subcube mapper of internal/strategy is the primary
// client. All three functions accept any forest in the Parent convention
// of eliminationTree (Parent[j] = parent of j, -1 for roots); none of them
// assume the heap property parent[j] > j, so they also work on relabeled
// or synthetic forests.

// Roots returns the roots of the forest in increasing order.
func Roots(parent []int) []int32 {
	var roots []int32
	for j, p := range parent {
		if p == -1 {
			roots = append(roots, int32(j))
		}
	}
	return roots
}

// Children returns the children lists of the forest; Children(parent)[j]
// holds the children of j in increasing order. The lists are cut from one
// backing array, each capped at its length, so appending to one copies it.
func Children(parent []int) [][]int32 {
	n := len(parent)
	// end[p] counts p's children, then, prefix-summed, ends p's list; the
	// fill, walking the nodes down, leaves it at the list's start.
	end := make([]int32, n+1)
	for _, p := range parent {
		if p != -1 {
			end[p]++
		}
	}
	for j := 1; j <= n; j++ {
		end[j] += end[j-1]
	}
	all := make([]int32, end[n])
	for j := n - 1; j >= 0; j-- {
		if p := parent[j]; p != -1 {
			end[p]--
			all[end[p]] = int32(j)
		}
	}
	children := make([][]int32, n)
	for j := range children {
		children[j] = all[end[j]:end[j+1]:end[j+1]]
	}
	return children
}

// SubtreeSums accumulates a per-node weight vector up the forest:
// out[j] = weight[j] + sum of out[c] over the children c of j. For the
// elimination tree with per-column work weights this is the paper's
// subtree work — the quantity proportional mapping splits processor sets
// by.
func SubtreeSums(parent []int, weight []int64) []int64 {
	if len(weight) != len(parent) {
		panic("symbolic: SubtreeSums weight length does not match forest")
	}
	out := make([]int64, len(parent))
	for _, j := range postOrderOf(parent) {
		out[j] += weight[j]
		if p := parent[j]; p != -1 {
			out[p] += out[j]
		}
	}
	return out
}
