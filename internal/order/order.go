package order

// Natural returns the identity ordering.
func Natural(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
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
