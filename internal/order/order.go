package order

import (
	"fmt"
	"sort"

	"repro/internal/sparse"
)

// Natural returns the identity ordering.
func Natural(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Inverse returns the inverse permutation: if order[k] = old, then
// Inverse(order)[old] = k.
func Inverse(order []int) []int {
	inv := make([]int, len(order))
	for k, o := range order {
		inv[o] = k
	}
	return inv
}

// IsPermutation reports whether p is a permutation of 0..len(p)-1.
func IsPermutation(p []int) bool {
	seen := make([]bool, len(p))
	for _, x := range p {
		if x < 0 || x >= len(p) || seen[x] {
			return false
		}
		seen[x] = true
	}
	return true
}

// RCM returns the reverse Cuthill-McKee ordering of the matrix, a
// bandwidth-reducing baseline ordering. Each connected component is
// traversed breadth-first from a pseudo-peripheral node, visiting
// neighbours in increasing-degree order; the final ordering is reversed.
func RCM(m *sparse.Matrix) []int {
	n := m.N
	adj := m.Adjacency()
	deg := make([]int, n)
	for i := range adj {
		deg[i] = len(adj[i])
	}
	visited := make([]bool, n)
	result := make([]int, 0, n)
	var queue []int
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := pseudoPeripheral(adj, deg, start)
		visited[root] = true
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			result = append(result, v)
			next := make([]int, 0, len(adj[v]))
			for _, u := range adj[v] {
				if !visited[u] {
					visited[u] = true
					next = append(next, u)
				}
			}
			sort.Slice(next, func(a, b int) bool {
				if deg[next[a]] != deg[next[b]] {
					return deg[next[a]] < deg[next[b]]
				}
				return next[a] < next[b]
			})
			queue = append(queue, next...)
		}
	}
	// Reverse.
	for i, j := 0, len(result)-1; i < j; i, j = i+1, j-1 {
		result[i], result[j] = result[j], result[i]
	}
	if len(result) != n {
		panic(fmt.Sprintf("order: RCM produced %d of %d indices", len(result), n))
	}
	return result
}

// pseudoPeripheral finds an approximate peripheral node of the component
// containing start using the standard rooted-level-structure iteration.
func pseudoPeripheral(adj [][]int, deg []int, start int) int {
	root := start
	lastEcc := -1
	for iter := 0; iter < 10; iter++ {
		levels, last := bfsLevels(adj, root)
		if levels <= lastEcc {
			return root
		}
		lastEcc = levels
		// Choose a minimum-degree node in the last level.
		best := last[0]
		for _, v := range last {
			if deg[v] < deg[best] {
				best = v
			}
		}
		root = best
	}
	return root
}

// bfsLevels returns the eccentricity of root within its component and the
// nodes of the final BFS level.
func bfsLevels(adj [][]int, root int) (int, []int) {
	visited := map[int]bool{root: true}
	frontier := []int{root}
	levels := 0
	last := frontier
	for {
		var next []int
		for _, v := range frontier {
			for _, u := range adj[v] {
				if !visited[u] {
					visited[u] = true
					next = append(next, u)
				}
			}
		}
		if len(next) == 0 {
			return levels, last
		}
		levels++
		last = next
		frontier = next
	}
}
