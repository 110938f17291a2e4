package sparse

import "strings"

// Spy renders an ASCII "spy plot" of the lower triangle of the matrix,
// the textual analogue of the paper's Figure 2. Nonzero positions are
// drawn with '*', the diagonal with '\', and zeros with '.'.
//
// If maxDim > 0 and the matrix is larger, the plot is downsampled to at
// most maxDim x maxDim cells; a cell is nonzero if any position it covers
// is nonzero.
func (m *Matrix) Spy(maxDim int) string {
	n := m.N
	if n == 0 {
		return ""
	}
	dim := n
	if maxDim > 0 && maxDim < n {
		dim = maxDim
	}
	// grid[r][c] for lower-triangle cells only.
	grid := make([][]byte, dim)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", dim))
		for c := 0; c <= r; c++ {
			grid[r][c] = '.'
		}
	}
	cell := func(idx int) int { return idx * dim / n }
	for j := 0; j < n; j++ {
		for _, i := range m.Col(j) {
			r, c := cell(int(i)), cell(j)
			if r == c {
				if grid[r][c] != '*' {
					grid[r][c] = '\\'
				}
			} else {
				grid[r][c] = '*'
			}
		}
	}
	var sb strings.Builder
	for _, row := range grid {
		sb.Write(row)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SpyWithBoundaries renders a spy plot with '|' markers inserted after the
// listed column boundaries (exclusive end columns of clusters). It is used
// to visualize the cluster structure found by the partitioner, as in the
// discussion of Figure 2. The matrix is rendered at full resolution, so it
// should be small (n <= ~120).
func (m *Matrix) SpyWithBoundaries(bounds []int) string {
	n := m.N
	mark := make(map[int]bool, len(bounds))
	for _, b := range bounds {
		mark[b] = true
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			switch {
			case i == j:
				sb.WriteByte('\\')
			case m.has(i, j):
				sb.WriteByte('*')
			default:
				sb.WriteByte('.')
			}
			if mark[j+1] && j < i {
				sb.WriteByte('|')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
