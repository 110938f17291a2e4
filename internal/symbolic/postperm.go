package symbolic

import "repro/internal/sparse"

// PostOrderPerm composes a fill-reducing permutation with a postordering
// of the resulting elimination tree. The composed ordering produces a
// factor with exactly the same fill (postordering relabels the etree
// without changing it), but with every subtree numbered contiguously —
// which makes supernodes and their etree parents adjacent, so cluster
// relaxation (Relax) finds far more merge opportunities.
//
// perm must satisfy perm[k] = original index of the k-th variable (the
// convention of order.MMD). The returned slice follows it.
func PostOrderPerm(m *sparse.Matrix, perm []int) ([]int, error) {
	pm, err := m.Permute(perm)
	if err != nil {
		return nil, err
	}
	parent := eliminationTree(pm)
	post := postOrderOf(parent)
	composed := make([]int, len(perm))
	for k, v := range post {
		composed[k] = perm[v]
	}
	return composed, nil
}
