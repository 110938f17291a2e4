package order

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sparse"
)

func TestNDIsPermutation(t *testing.T) {
	fc := func(seed int64) bool {
		m := gen.Random(70, 1.4, seed)
		return IsPermutation(NestedDissection(m, 16))
	}
	if err := quick.Check(fc, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNDSuiteValid(t *testing.T) {
	for _, tm := range gen.Suite() {
		m := tm.Build()
		p := NestedDissection(m, 32)
		if !IsPermutation(p) {
			t.Errorf("%s: ND output invalid", tm.Name)
		}
	}
}

func TestNDGridBeatsNatural(t *testing.T) {
	m := gen.Grid5(12, 12)
	nat := eliminationFill(m, Natural(m.N))
	nd := eliminationFill(m, NestedDissection(m, 16))
	if nd >= nat {
		t.Errorf("ND fill %d not below natural %d on 12x12 grid", nd, nat)
	}
}

func TestNDNearMMDOnGrid(t *testing.T) {
	// ND should be within 2x of MMD fill on a moderate grid (both are
	// near-optimal families there).
	m := gen.Grid5(14, 14)
	mmd := eliminationFill(m, MMD(m))
	nd := eliminationFill(m, NestedDissection(m, 16))
	t.Logf("14x14 grid: MMD fill %d, ND fill %d", mmd, nd)
	if nd > 2*mmd {
		t.Errorf("ND fill %d more than twice MMD %d", nd, mmd)
	}
}

func TestNDDisconnectedAndDense(t *testing.T) {
	// Disconnected graph.
	m, _ := sparse.NewPattern(12, [][2]int{{0, 1}, {4, 5}, {8, 9}})
	if !IsPermutation(NestedDissection(m, 2)) {
		t.Error("ND failed on disconnected graph")
	}
	// Complete graph: no separator exists; must still terminate.
	var edges [][2]int
	for i := 0; i < 10; i++ {
		for j := 0; j < i; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	k, _ := sparse.NewPattern(10, edges)
	if !IsPermutation(NestedDissection(k, 4)) {
		t.Error("ND failed on complete graph")
	}
	// Singleton and empty.
	s, _ := sparse.NewPattern(1, nil)
	if p := NestedDissection(s, 4); len(p) != 1 {
		t.Error("ND failed on singleton")
	}
	e, _ := sparse.NewPattern(0, nil)
	if p := NestedDissection(e, 4); len(p) != 0 {
		t.Error("ND failed on empty")
	}
}
