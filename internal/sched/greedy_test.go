package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
)

func TestGreedyAssignsEveryUnit(t *testing.T) {
	_, part, _ := pipeline(gen.Lap30(), 25, 4)
	for _, p := range []int{2, 16, 32} {
		s := BlockMapGreedy(part, p)
		for u, pr := range s.UnitProc {
			if pr < 0 || int(pr) >= p {
				t.Fatalf("P=%d: unit %d on %d", p, u, pr)
			}
		}
	}
}

func TestGreedyConservesWork(t *testing.T) {
	fc := func(seed int64) bool {
		m := gen.Random(50, 1.4, seed)
		_, part, ew := pipeline(m, 4, 3)
		var total int64
		for _, w := range ew {
			total += w
		}
		for _, p := range []int{1, 3, 8} {
			if BlockMapGreedy(part, p).TotalWork() != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fc, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyImprovesBalanceOnSuite(t *testing.T) {
	// The point of the variant: at the imbalance-prone setting (g=25,
	// large P) the greedy allocator must not be worse on average, and
	// should win clearly somewhere.
	var wins, losses int
	for _, tm := range gen.Suite() {
		_, part, _ := pipeline(tm.Build(), 25, 4)
		for _, p := range []int{16, 32} {
			a34 := BlockMap(part, p).Imbalance()
			agr := BlockMapGreedy(part, p).Imbalance()
			switch {
			case agr < a34*0.999:
				wins++
			case agr > a34*1.001:
				losses++
			}
		}
	}
	if wins <= losses {
		t.Errorf("greedy allocator wins %d, losses %d — expected net improvement", wins, losses)
	}
}

func TestGreedyKeepsRectanglesInPt(t *testing.T) {
	_, part, _ := pipeline(gen.Lap30(), 4, 4)
	s := BlockMapGreedy(part, 16)
	for ci := range part.Clusters {
		cl := &part.Clusters[ci]
		if cl.Single {
			continue
		}
		inPt := make(map[int32]bool)
		for _, u := range cl.TriAlloc {
			inPt[s.UnitProc[u]] = true
		}
		for ri := range cl.Rects {
			for _, row := range cl.Rects[ri].Units {
				for _, u := range row {
					if !inPt[s.UnitProc[u]] {
						t.Fatalf("rect unit %d escaped Pt", u)
					}
				}
			}
		}
	}
}

func TestGreedyDependentColumnsOnPredProc(t *testing.T) {
	_, part, _ := pipeline(gen.PowerBus(300, 80, 7), 4, 4)
	s := BlockMapGreedy(part, 8)
	for ci := range part.Clusters {
		cl := &part.Clusters[ci]
		if !cl.Single || len(part.Units[cl.ColUnit].Preds) == 0 {
			continue
		}
		ok := false
		for _, pr := range part.Units[cl.ColUnit].Preds {
			if s.UnitProc[pr] == s.UnitProc[cl.ColUnit] {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("dependent column unit %d not on a predecessor processor", cl.ColUnit)
		}
	}
}
