package gen

import (
	"testing"
	"testing/quick"
)

func TestLap30MatchesPaperExactly(t *testing.T) {
	m := Lap30()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.N != 900 {
		t.Errorf("n = %d, want 900", m.N)
	}
	if m.NNZ() != 4322 {
		t.Errorf("nnz(lower) = %d, want 4322 (paper Table 1)", m.NNZ())
	}
}

func TestGrid5Counts(t *testing.T) {
	// rows*cols nodes; edges = rows*(cols-1) + (rows-1)*cols.
	m := Grid5(4, 7)
	if m.N != 28 {
		t.Fatalf("n = %d", m.N)
	}
	wantEdges := 4*6 + 3*7
	if got := m.OffDiagNNZ(); got != wantEdges {
		t.Errorf("off-diag nnz = %d, want %d", got, wantEdges)
	}
}

func TestGrid9Counts(t *testing.T) {
	// Interior node of a 3x3 grid connects to all 8 others around it.
	m := Grid9(3, 3)
	deg := m.Degrees()
	if deg[4] != 8 {
		t.Errorf("center degree = %d, want 8", deg[4])
	}
	if deg[0] != 3 {
		t.Errorf("corner degree = %d, want 3", deg[0])
	}
}

func TestFEGrid5Figure2Size(t *testing.T) {
	m := FEGrid5(5)
	if m.N != 41 {
		t.Errorf("n = %d, want 41 (the 41x41 matrix of Figure 2)", m.N)
	}
	// Center nodes couple to exactly their 4 corners.
	deg := m.Degrees()
	for c := 25; c < 41; c++ {
		if deg[c] != 4 {
			t.Errorf("center node %d degree = %d, want 4", c, deg[c])
		}
	}
	// An interior corner node touches 4 elements: 8 corner neighbours
	// + 4 centers.
	if deg[12] != 12 {
		t.Errorf("interior corner degree = %d, want 12", deg[12])
	}
}

func TestLShapeSizeNearPaper(t *testing.T) {
	m := LShape(18)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.N != 1045 {
		t.Errorf("n = %d, want 1045 (paper LSHP1009 has 1009; same family)", m.N)
	}
	// Within 10%% of the paper's 3937 lower nonzeros.
	lo, hi := 3543, 4331
	if nz := m.NNZ(); nz < lo || nz > hi {
		t.Errorf("nnz = %d, want within [%d,%d]", nz, lo, hi)
	}
}

func TestLShapeDomainIsL(t *testing.T) {
	// For m=2: 5x5 grid minus the 2x2 upper-right block = 21 nodes.
	m := LShape(2)
	if m.N != 21 {
		t.Errorf("n = %d, want 21", m.N)
	}
}

func TestPowerBusMatchesCounts(t *testing.T) {
	m := PowerBus(1138, 321, 1138)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.N != 1138 {
		t.Errorf("n = %d", m.N)
	}
	if got, want := m.NNZ(), 2596; got != want {
		t.Errorf("nnz = %d, want %d (paper BUS1138)", got, want)
	}
	// Degree cap honoured.
	for i, d := range m.Degrees() {
		if d > 9 {
			t.Errorf("node %d degree %d exceeds cap", i, d)
		}
	}
}

func TestCannesNearTarget(t *testing.T) {
	m := Cannes(1072, 5686, 1072)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	got := m.OffDiagNNZ()
	if got < 5400 || got > 5686 {
		t.Errorf("off-diag nnz = %d, want close to 5686 (paper CANN1072)", got)
	}
}

func TestFrameSize(t *testing.T) {
	m := Frame(8, 64)
	if m.N != 512 {
		t.Errorf("n = %d, want 512 (paper DWT512)", m.N)
	}
	// Paper DWT512 has 2007 lower nnz; the braced cylinder should be close.
	if nz := m.NNZ(); nz < 1800 || nz > 2210 {
		t.Errorf("nnz = %d, want near 2007", nz)
	}
}

func TestSuiteIsDeterministic(t *testing.T) {
	for _, tm := range Suite() {
		a, b := tm.Build(), tm.Build()
		if a.N != b.N || a.NNZ() != b.NNZ() {
			t.Errorf("%s: non-deterministic build", tm.Name)
		}
		for k := range a.RowInd {
			if a.RowInd[k] != b.RowInd[k] {
				t.Fatalf("%s: pattern differs between builds", tm.Name)
			}
		}
	}
}

func TestSuiteMatricesValid(t *testing.T) {
	for _, tm := range Suite() {
		m := tm.Build()
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", tm.Name, err)
		}
		if m.Val == nil {
			t.Errorf("%s: missing values", tm.Name)
		}
		if tm.Exact {
			if m.N != tm.PaperN || m.NNZ() != tm.PaperNNZ {
				t.Errorf("%s marked exact but n=%d nnz=%d vs paper n=%d nnz=%d",
					tm.Name, m.N, m.NNZ(), tm.PaperN, tm.PaperNNZ)
			}
		} else {
			// Approximations must be within 10% on both axes.
			if tooFar(m.N, tm.PaperN, 0.10) || tooFar(m.NNZ(), tm.PaperNNZ, 0.10) {
				t.Errorf("%s: n=%d nnz=%d too far from paper n=%d nnz=%d",
					tm.Name, m.N, m.NNZ(), tm.PaperN, tm.PaperNNZ)
			}
		}
	}
}

func tooFar(got, want int, tol float64) bool {
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	return d > tol*float64(want)
}

func TestByName(t *testing.T) {
	m, tm, err := ByName("lap30")
	if err != nil {
		t.Fatal(err)
	}
	if tm.Name != "LAP30" || m.N != 900 {
		t.Errorf("ByName returned %s n=%d", tm.Name, m.N)
	}
	if _, _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestRandomConnectedProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := Random(30, 1.5, seed)
		if m.Validate() != nil {
			return false
		}
		// Connectivity via BFS over adjacency.
		adj := m.Adjacency()
		seen := make([]bool, m.N)
		queue := []int{0}
		seen[0] = true
		count := 1
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range adj[v] {
				if !seen[u] {
					seen[u] = true
					count++
					queue = append(queue, u)
				}
			}
		}
		return count == m.N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
