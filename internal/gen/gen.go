// Package gen generates the test matrices of the reproduction.
//
// The paper's experiments use five Harwell-Boeing matrices (Table 1):
// BUS1138, CANN1072, DWT512, LAP30 and LSHP1009. The Harwell-Boeing data
// files are not distributable here, so this package builds each matrix from
// its published description:
//
//   - LAP30 is reproduced exactly: the 9-point discretization of the
//     Laplacian on the unit square with Dirichlet boundary conditions on a
//     30x30 grid has exactly 900 equations and 4322 lower-triangle nonzeros,
//     matching Table 1 of the paper.
//   - LSHP1009 is approximated by the same construction George's LSHAPE
//     problems use: a right-triangle mesh on an L-shaped domain.
//   - BUS1138, CANN1072 and DWT512 are approximated by synthetic graphs of
//     the same family (power network, irregular structural pattern, framed
//     shell) matched to the published dimension and nonzero counts.
//
// All generators are deterministic: random constructions take an explicit
// seed. Every returned matrix carries SPD Laplacian values (diagonal =
// degree + 1, off-diagonal = -1).
package gen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/sparse"
)

// value shift used for all generated SPD matrices.
const spdShift = 1.0

func finish(n int, edges [][2]int) *sparse.Matrix {
	m, err := sparse.NewPattern(n, edges)
	if err != nil {
		panic(fmt.Sprintf("gen: internal error: %v", err))
	}
	m.SetLaplacianValues(spdShift)
	return m
}

// Grid5 returns the 5-point Laplacian on an rows x cols grid with Dirichlet
// boundary conditions (each interior connection to N/S/E/W neighbours).
func Grid5(rows, cols int) *sparse.Matrix {
	id := func(r, c int) int { return r*cols + c }
	var edges [][2]int
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	return finish(rows*cols, edges)
}

// Grid9 returns the 9-point Laplacian on an rows x cols grid with Dirichlet
// boundary conditions: each node couples to all eight surrounding nodes.
// Grid9(30, 30) reproduces the paper's LAP30 exactly: 900 equations and
// 4322 lower-triangle nonzeros.
func Grid9(rows, cols int) *sparse.Matrix {
	id := func(r, c int) int { return r*cols + c }
	var edges [][2]int
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{id(r, c), id(r+1, c)})
				if c+1 < cols {
					edges = append(edges, [2]int{id(r, c), id(r+1, c+1)})
				}
				if c > 0 {
					edges = append(edges, [2]int{id(r, c), id(r+1, c-1)})
				}
			}
		}
	}
	return finish(rows*cols, edges)
}

// Lap30 is the paper's LAP30 test problem: the 9-point Laplacian on the
// 30x30 grid (900 equations, 4322 lower-triangle nonzeros).
func Lap30() *sparse.Matrix { return Grid9(30, 30) }

// FEGrid5 returns the "5-point finite element grid" of the paper's
// Figure 2: an m x m grid of corner nodes plus an (m-1) x (m-1) grid of
// element-center nodes; every element couples its five nodes (four corners
// and the center) pairwise, as a finite-element assembly does. For m = 5
// this yields the 41-unknown matrix shown in Figure 2.
func FEGrid5(m int) *sparse.Matrix {
	corner := func(r, c int) int { return r*m + c }
	center := func(r, c int) int { return m*m + r*(m-1) + c }
	n := m*m + (m-1)*(m-1)
	var edges [][2]int
	for r := 0; r < m-1; r++ {
		for c := 0; c < m-1; c++ {
			nodes := []int{
				corner(r, c), corner(r, c+1),
				corner(r+1, c), corner(r+1, c+1),
				center(r, c),
			}
			for a := 0; a < len(nodes); a++ {
				for b := a + 1; b < len(nodes); b++ {
					edges = append(edges, [2]int{nodes[a], nodes[b]})
				}
			}
		}
	}
	return finish(n, edges)
}

// LShape returns a right-triangle mesh on an L-shaped domain, the
// construction behind Alan George's LSHAPE problems (the paper's LSHP1009).
// The domain is the (2m+1) x (2m+1) grid with the upper-right m x m block
// of nodes removed; each remaining unit square is split by a diagonal.
// LShape(18) has 1045 equations (paper's LSHP1009 has 1009) with the same
// 6-neighbour interior connectivity.
func LShape(m int) *sparse.Matrix {
	side := 2*m + 1
	idx := make(map[[2]int]int)
	var coords [][2]int
	keep := func(r, c int) bool { return !(r < m && c > m) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if keep(r, c) {
				idx[[2]int{r, c}] = len(coords)
				coords = append(coords, [2]int{r, c})
			}
		}
	}
	var edges [][2]int
	add := func(a, b [2]int) {
		ia, oka := idx[a]
		ib, okb := idx[b]
		if oka && okb {
			edges = append(edges, [2]int{ia, ib})
		}
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if !keep(r, c) {
				continue
			}
			add([2]int{r, c}, [2]int{r, c + 1})
			add([2]int{r, c}, [2]int{r + 1, c})
			// Split each unit square by its anti-diagonal. Only create the
			// diagonal when all four corners exist so triangles are valid.
			if keep(r, c+1) && keep(r+1, c) && keep(r+1, c+1) {
				add([2]int{r, c + 1}, [2]int{r + 1, c})
			}
		}
	}
	return finish(len(coords), edges)
}

// PowerBus returns a synthetic power-system network in the spirit of the
// Harwell-Boeing BUS matrices: a random spanning tree with degree-capped
// attachment plus extra "loop" lines. The result has n equations and
// exactly n + (n-1) + extra lower-triangle nonzeros (unless extra demands
// duplicate edges, which are skipped).
func PowerBus(n, extra int, seed int64) *sparse.Matrix {
	rng := rand.New(rand.NewSource(seed))
	deg := make([]int, n)
	var edges [][2]int
	have := make(map[[2]int]bool)
	addEdge := func(a, b int) bool {
		if a == b {
			return false
		}
		if a < b {
			a, b = b, a
		}
		if have[[2]int{a, b}] {
			return false
		}
		have[[2]int{a, b}] = true
		edges = append(edges, [2]int{a, b})
		deg[a]++
		deg[b]++
		return true
	}
	// Spanning tree: each new bus connects to a nearby existing bus with
	// degree below the cap; power grids are near-trees with low max degree
	// and strongly local structure (lines connect geographic neighbours).
	const degCap = 9
	for v := 1; v < n; v++ {
		window := 40
		for {
			lo := v - window
			if lo < 0 {
				lo = 0
			}
			u := lo + rng.Intn(v-lo)
			if deg[u] < degCap {
				addEdge(u, v)
				break
			}
			window *= 2 // widen if the local window is saturated
		}
	}
	// Loop lines: connect pairs at short index distance, imitating the
	// local interconnection loops of transmission grids.
	for added, tries := 0, 0; added < extra && tries < 200*extra; tries++ {
		u := rng.Intn(n)
		span := 1 + rng.Intn(16)
		v := u + span
		if v >= n {
			continue
		}
		if deg[u] >= degCap || deg[v] >= degCap {
			continue
		}
		if addEdge(u, v) {
			added++
		}
	}
	return finish(n, edges)
}

// Cannes returns a synthetic irregular structural pattern in the spirit of
// the Harwell-Boeing CANN* matrices (Lucien Marro's Cannes collection):
// an irregularly banded graph where each node connects to a random number
// of earlier nodes inside a local window. offDiag is the target number of
// strictly-lower-triangle nonzeros.
func Cannes(n, offDiag int, seed int64) *sparse.Matrix {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	have := make(map[[2]int]bool)
	remaining := offDiag
	for v := 1; v < n; v++ {
		// Budget edges proportionally so the construction hits offDiag.
		want := remaining / (n - v)
		if want < 1 {
			want = 1
		}
		jitter := rng.Intn(2*want+1) - want/2
		k := want + jitter
		if k < 1 {
			k = 1
		}
		window := 10 + rng.Intn(30)
		added := 0
		for t := 0; t < 10*k && added < k; t++ {
			lo := v - window
			if lo < 0 {
				lo = 0
			}
			u := lo + rng.Intn(v-lo)
			key := [2]int{v, u}
			if have[key] {
				continue
			}
			have[key] = true
			edges = append(edges, [2]int{u, v})
			added++
			remaining--
			if remaining <= 0 {
				break
			}
		}
		if remaining <= 0 {
			break
		}
	}
	return finish(n, edges)
}

// Frame returns a braced cylindrical shell mesh in the spirit of the
// Harwell-Boeing DWT matrices (ship and submarine frames measured by the
// Naval Ship R&D Center): around x along nodes on a cylinder, quad shell
// edges plus one diagonal brace per cell and periodic ring closure.
func Frame(around, along int) *sparse.Matrix {
	id := func(a, l int) int { return l*around + a }
	n := around * along
	var edges [][2]int
	for l := 0; l < along; l++ {
		for a := 0; a < around; a++ {
			edges = append(edges, [2]int{id(a, l), id((a+1)%around, l)})
			if l+1 < along {
				edges = append(edges, [2]int{id(a, l), id(a, l+1)})
				edges = append(edges, [2]int{id(a, l), id((a+1)%around, l+1)})
			}
		}
	}
	return finish(n, edges)
}

// TestMatrix couples a generated matrix with the paper's published
// statistics for its Harwell-Boeing counterpart (Table 1).
type TestMatrix struct {
	Name string
	// Paper's Table 1 values for the Harwell-Boeing original.
	PaperN         int
	PaperNNZ       int
	PaperFactorNNZ int
	Description    string
	Exact          bool // true if the generated matrix reproduces the original exactly
	Build          func() *sparse.Matrix
}

// Suite returns the five test problems of the paper's Table 1, in the
// paper's order. Construction is deferred to the Build closures so callers
// can generate only what they need.
func Suite() []TestMatrix {
	return []TestMatrix{
		{
			Name: "BUS1138", PaperN: 1138, PaperNNZ: 2596, PaperFactorNNZ: 3304,
			Description: "Symmetric structure of power system networks",
			Build:       func() *sparse.Matrix { return PowerBus(1138, 321, 1138) },
		},
		{
			Name: "CANN1072", PaperN: 1072, PaperNNZ: 6758, PaperFactorNNZ: 20512,
			Description: "Symmetric pattern from Cannes, Lucien Marro",
			Build:       func() *sparse.Matrix { return Cannes(1072, 5686, 1072) },
		},
		{
			Name: "DWT512", PaperN: 512, PaperNNZ: 2007, PaperFactorNNZ: 3786,
			Description: "Symmetric submarine frame from Naval Ship R&D Center",
			Build:       func() *sparse.Matrix { return Frame(8, 64) },
		},
		{
			Name: "LAP30", PaperN: 900, PaperNNZ: 4322, PaperFactorNNZ: 16697,
			Description: "9-point discretization of the Laplacian on the unit square",
			Exact:       true,
			Build:       Lap30,
		},
		{
			Name: "LSHP1009", PaperN: 1009, PaperNNZ: 3937, PaperFactorNNZ: 18268,
			Description: "L-shaped triangular mesh from Alan George's LSHAPE problems",
			Build:       func() *sparse.Matrix { return LShape(18) },
		},
	}
}

// ByName builds the named test matrix from Suite. Lookup is
// case-insensitive on ASCII.
func ByName(name string) (*sparse.Matrix, TestMatrix, error) {
	for _, tm := range Suite() {
		if strings.EqualFold(tm.Name, name) {
			return tm.Build(), tm, nil
		}
	}
	var names []string
	for _, tm := range Suite() {
		names = append(names, tm.Name)
	}
	sort.Strings(names)
	return nil, TestMatrix{}, fmt.Errorf("gen: unknown matrix %q (known: %v)", name, names)
}

// Random returns a random connected symmetric SPD matrix for property
// tests: n nodes, a random spanning tree plus roughly density*n extra
// edges.
func Random(n int, density float64, seed int64) *sparse.Matrix {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{rng.Intn(v), v})
	}
	extra := int(density * float64(n))
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, [2]int{u, v})
		}
	}
	return finish(n, edges)
}
