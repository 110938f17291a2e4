package sched

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// columnWorkOf computes element work and its total for a factor.
func columnWorkOf(f *symbolic.Factor) (elemWork []int64, total int64) {
	ops := model.NewOps(f)
	elemWork = model.ElementWork(ops)
	return elemWork, model.TotalWork(elemWork)
}

func pipeline(m *sparse.Matrix, g, w int) (*symbolic.Factor, *core.Partition, []int64) {
	pm, err := m.Permute(order.MMD(m))
	if err != nil {
		panic(err)
	}
	f := symbolic.Analyze(pm)
	part := core.NewPartition(f, core.Options{Grain: g, MinClusterWidth: w})
	ew, _ := columnWorkOf(f)
	return f, part, ew
}

func TestWrapMapOwnership(t *testing.T) {
	f, _, ew := pipeline(gen.Grid5(6, 6), 4, 4)
	s := WrapMap(f, ew, 4)
	for j := 0; j < f.N; j++ {
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			if s.ElemProc[q] != int32(j%4) {
				t.Fatalf("element in column %d owned by %d", j, s.ElemProc[q])
			}
		}
	}
}

func TestWorkConservation(t *testing.T) {
	fc := func(seed int64) bool {
		m := gen.Random(50, 1.4, seed)
		f, part, ew := pipeline(m, 4, 3)
		var total int64
		for _, w := range ew {
			total += w
		}
		for _, p := range []int{1, 3, 7} {
			if WrapMap(f, ew, p).TotalWork() != total {
				return false
			}
			if BlockMap(part, p).TotalWork() != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fc, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleProcessorPerfectBalance(t *testing.T) {
	f, part, ew := pipeline(gen.Lap30(), 4, 4)
	for _, s := range []*Schedule{WrapMap(f, ew, 1), BlockMap(part, 1)} {
		if s.Imbalance() != 0 {
			t.Errorf("P=1 imbalance = %g, want 0", s.Imbalance())
		}
		if s.Efficiency() != 1 {
			t.Errorf("P=1 efficiency = %g, want 1", s.Efficiency())
		}
	}
}

func TestBlockMapAssignsEveryUnit(t *testing.T) {
	_, part, _ := pipeline(gen.Lap30(), 4, 4)
	for _, p := range []int{2, 16, 32} {
		s := BlockMap(part, p)
		for u, pr := range s.UnitProc {
			if pr < 0 || int(pr) >= p {
				t.Fatalf("P=%d: unit %d assigned to %d", p, u, pr)
			}
		}
		for q, pr := range s.ElemProc {
			if pr != s.UnitProc[part.ElemUnit[q]] {
				t.Fatal("element ownership inconsistent with unit ownership")
			}
		}
	}
}

func TestRectanglesConfinedToTriangleProcs(t *testing.T) {
	// The paper's key communication-reducing rule: units of rectangles
	// below a triangle go only to processors that worked on the triangle.
	_, part, _ := pipeline(gen.Lap30(), 4, 4)
	s := BlockMap(part, 16)
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
						t.Fatalf("cluster %d rect unit %d on proc %d outside Pt %v",
							ci, u, s.UnitProc[u], inPt)
					}
				}
			}
		}
	}
}

func TestDependentColumnsOnPredecessorProc(t *testing.T) {
	_, part, _ := pipeline(gen.PowerBus(300, 80, 7), 4, 4)
	s := BlockMap(part, 8)
	for ci := range part.Clusters {
		cl := &part.Clusters[ci]
		if !cl.Single {
			continue
		}
		u := cl.ColUnit
		preds := part.Units[u].Preds
		if len(preds) == 0 {
			continue
		}
		procs := make(map[int32]bool)
		for _, pr := range preds {
			procs[s.UnitProc[pr]] = true
		}
		if !procs[s.UnitProc[u]] {
			t.Fatalf("dependent column unit %d on proc %d, predecessors on %v",
				u, s.UnitProc[u], procs)
		}
	}
}

func TestIndependentColumnsWrapped(t *testing.T) {
	// Diagonal matrix: every column independent, so allocation is pure
	// wrap-around in cluster order.
	m, _ := sparse.NewPattern(10, nil)
	m.SetLaplacianValues(1)
	f := symbolic.Analyze(m)
	part := core.NewPartition(f, core.Options{Grain: 4, MinClusterWidth: 4})
	s := BlockMap(part, 4)
	for ci := range part.Clusters {
		cl := &part.Clusters[ci]
		if !cl.Single {
			t.Fatal("diagonal matrix should be all single columns")
		}
		if want := int32(ci % 4); s.UnitProc[cl.ColUnit] != want {
			t.Fatalf("independent column %d on proc %d, want %d", ci, s.UnitProc[cl.ColUnit], want)
		}
	}
}

func TestImbalanceKnownValues(t *testing.T) {
	s := &Schedule{P: 4, Work: []int64{10, 10, 10, 10}}
	if s.Imbalance() != 0 {
		t.Errorf("balanced A = %g", s.Imbalance())
	}
	s2 := &Schedule{P: 4, Work: []int64{40, 0, 0, 0}}
	if got := s2.Imbalance(); math.Abs(got-3) > 1e-12 {
		t.Errorf("A = %g, want 3 (all work on one of four procs)", got)
	}
	if e := s2.Efficiency(); math.Abs(e-0.25) > 1e-12 {
		t.Errorf("efficiency = %g, want 0.25", e)
	}
	// 1/(1+A) == e identity from the paper.
	if math.Abs(1/(1+s2.Imbalance())-s2.Efficiency()) > 1e-12 {
		t.Error("1/(1+A) != efficiency")
	}
}

func TestWrapBetterBalancedThanBlock(t *testing.T) {
	// The paper's headline load-balance result: wrap mapping has
	// consistently lower imbalance than the block scheme at g=25.
	for _, tm := range gen.Suite() {
		f, part, ew := pipeline(tm.Build(), 25, 4)
		wrap := WrapMap(f, ew, 16)
		block := BlockMap(part, 16)
		if wrap.Imbalance() > block.Imbalance() {
			t.Errorf("%s: wrap A=%.3f worse than block A=%.3f at g=25",
				tm.Name, wrap.Imbalance(), block.Imbalance())
		}
	}
}

func TestMoreProcsMoreImbalance(t *testing.T) {
	// A generally grows with P for the block scheme (paper Table 3).
	_, part, _ := pipeline(gen.Lap30(), 25, 4)
	a4 := BlockMap(part, 4).Imbalance()
	a32 := BlockMap(part, 32).Imbalance()
	if a32 <= a4 {
		t.Errorf("A(32)=%.3f not larger than A(4)=%.3f", a32, a4)
	}
}

func TestWrapPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f, _, ew := pipeline(gen.Grid5(3, 3), 4, 4)
	WrapMap(f, ew, 0)
}

func TestBlockMapPanicsOnBadP(t *testing.T) {
	_, part, _ := pipeline(gen.Grid5(3, 3), 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BlockMap(part, 0)
}

func TestGreedyPanicsOnBadP(t *testing.T) {
	_, part, _ := pipeline(gen.Grid5(3, 3), 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BlockMapGreedy(part, -1)
}

func TestScheduleAccessors(t *testing.T) {
	f, part, ew := pipeline(gen.Grid9(6, 6), 4, 4)
	s := WrapMap(f, ew, 4)
	if s.MaxWork() <= 0 || s.MaxWork() > s.TotalWork() {
		t.Fatalf("MaxWork %d vs TotalWork %d", s.MaxWork(), s.TotalWork())
	}
	b := BlockMap(part, 4)
	if b.TotalWork() != s.TotalWork() {
		t.Fatal("schemes disagree on total work")
	}
	solveW := make([]int64, f.NNZ())
	for i := range solveW {
		solveW[i] = 1
	}
	acc := s.AccumulateElemWork(solveW)
	var sum int64
	for _, w := range acc {
		sum += w
	}
	if sum != int64(f.NNZ()) {
		t.Fatalf("accumulated %d, want %d", sum, f.NNZ())
	}
	if ImbalanceOf([]int64{}) != 0 || ImbalanceOf([]int64{0, 0}) != 0 {
		t.Fatal("ImbalanceOf degenerate cases wrong")
	}
}

func TestImbalanceEmptyProcessors(t *testing.T) {
	// More processors than work: some processors are empty; A reflects it.
	f, _, ew := pipeline(gen.Grid5(2, 2), 4, 4)
	s := WrapMap(f, ew, 16)
	if s.Imbalance() <= 0 {
		t.Errorf("expected positive imbalance with empty processors, got %g", s.Imbalance())
	}
	if e := s.Efficiency(); e <= 0 || e >= 1 {
		t.Errorf("efficiency %g out of range", e)
	}
}

// TestBlockMapGolden pins both Section 3.4 entry points, unit by unit,
// against the schedules of the commit that still had two allocator bodies:
// one FNV-1a hash of UnitProc and Work per allocator and cell of
// gen.Suite() × grain × width × relaxation × P (P past the unit count
// included: n + 1).
func TestBlockMapGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "blockmap.golden"))
	if err != nil {
		t.Fatal(err)
	}
	hash := func(s *Schedule) uint64 {
		h := fnv.New64a()
		var b [8]byte
		for _, pr := range s.UnitProc {
			binary.LittleEndian.PutUint32(b[:4], uint32(pr))
			h.Write(b[:4])
		}
		for _, w := range s.Work {
			binary.LittleEndian.PutUint64(b[:], uint64(w))
			h.Write(b[:])
		}
		return h.Sum64()
	}
	var got strings.Builder
	for _, tm := range gen.Suite() {
		m := tm.Build()
		pm, err := m.Permute(order.MMD(m))
		if err != nil {
			t.Fatal(err)
		}
		f := symbolic.Analyze(pm)
		for _, g := range []int{1, 4, 25, 100} {
			for _, w := range []int{2, 4, 8} {
				for _, rz := range []float64{0, 0.3} {
					part := core.NewPartition(f, core.Options{Grain: g, MinClusterWidth: w, RelaxZeros: rz})
					for _, p := range []int{1, 2, 3, 16, 64, f.N + 1} {
						fmt.Fprintf(&got, "%s g=%d w=%d rz=%g P=%d block=%016x greedy=%016x\n",
							tm.Name, g, w, rz, p, hash(BlockMap(part, p)), hash(BlockMapGreedy(part, p)))
					}
				}
			}
		}
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d drifted from testdata/blockmap.golden:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, golden %d", len(gl), len(wl))
	}
}
