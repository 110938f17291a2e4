package traffic

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

func pipeline(m *sparse.Matrix, g, w int) (*model.Ops, *core.Partition, []int64) {
	pm, err := m.Permute(order.MMD(m))
	if err != nil {
		panic(err)
	}
	f := symbolic.Analyze(pm)
	part := core.NewPartition(f, core.Options{Grain: g, MinClusterWidth: w})
	ops := model.NewOps(f)
	return ops, part, model.ElementWork(ops)
}

func TestSingleProcessorZeroTraffic(t *testing.T) {
	for _, tm := range gen.Suite() {
		ops, part, ew := pipeline(tm.Build(), 4, 4)
		if r := Simulate(ops, sched.WrapMap(ops.F, ew, 1)); r.Total != 0 {
			t.Errorf("%s wrap P=1 traffic = %d", tm.Name, r.Total)
		}
		if r := Simulate(ops, sched.BlockMap(part, 1)); r.Total != 0 {
			t.Errorf("%s block P=1 traffic = %d", tm.Name, r.Total)
		}
	}
}

func TestDense3x3WrapByHand(t *testing.T) {
	// Dense 3x3 with wrap over 3 processors: proc1 fetches (1,0),(2,0);
	// proc2 fetches (2,0),(2,1); all scales local. Total 4.
	var edges [][2]int
	for i := 0; i < 3; i++ {
		for j := 0; j < i; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	m, _ := sparse.NewPattern(3, edges)
	m.SetLaplacianValues(1)
	f := symbolic.Analyze(m)
	ops := model.NewOps(f)
	ew := model.ElementWork(ops)
	r := Simulate(ops, sched.WrapMap(f, ew, 3))
	if r.Total != 4 {
		t.Fatalf("traffic = %d, want 4", r.Total)
	}
	if r.PerProc[0] != 0 || r.PerProc[1] != 2 || r.PerProc[2] != 2 {
		t.Fatalf("per-proc = %v, want [0 2 2]", r.PerProc)
	}
	if r.Pair[0][1] != 2 || r.Pair[0][2] != 1 || r.Pair[1][2] != 1 {
		t.Fatalf("pair matrix = %v", r.Pair)
	}
}

// bruteTraffic recounts with a plain map, as an oracle.
func bruteTraffic(ops *model.Ops, s *sched.Schedule) int64 {
	seen := make(map[[2]int32]struct{})
	var total int64
	acc := func(elem, proc int32) {
		if s.ElemProc[elem] == proc {
			return
		}
		k := [2]int32{elem, proc}
		if _, ok := seen[k]; ok {
			return
		}
		seen[k] = struct{}{}
		total++
	}
	forEachUpdate(ops, func(u update) {
		acc(u.SrcI, s.ElemProc[u.Tgt])
		acc(u.SrcJ, s.ElemProc[u.Tgt])
	})
	forEachScale(ops, func(tgt, diag int32) { acc(diag, s.ElemProc[tgt]) })
	return total
}

func TestSimulateMatchesBruteForce(t *testing.T) {
	fc := func(seed int64) bool {
		m := gen.Random(40, 1.3, seed)
		ops, part, ew := pipeline(m, 3, 3)
		for _, p := range []int{2, 5, 16} {
			ws := sched.WrapMap(ops.F, ew, p)
			if Simulate(ops, ws).Total != bruteTraffic(ops, ws) {
				return false
			}
			bs := sched.BlockMap(part, p)
			if Simulate(ops, bs).Total != bruteTraffic(ops, bs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fc, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestLargePPathMatchesBitmaskPath(t *testing.T) {
	m := gen.Grid9(7, 7)
	ops, _, ew := pipeline(m, 4, 4)
	// P=49 and 64 fit one mask word per element, P=65 and 100 need two.
	// Compare against the brute oracle for all.
	for _, p := range []int{49, 64, 65, 100} {
		s := sched.WrapMap(ops.F, ew, p)
		if got, want := Simulate(ops, s).Total, bruteTraffic(ops, s); got != want {
			t.Errorf("P=%d: total %d, want %d", p, got, want)
		}
	}
}

func TestPerProcSumsToTotal(t *testing.T) {
	ops, part, _ := pipeline(gen.Lap30(), 4, 4)
	r := Simulate(ops, sched.BlockMap(part, 16))
	var sum int64
	for _, x := range r.PerProc {
		sum += x
	}
	if sum != r.Total {
		t.Fatalf("per-proc sum %d != total %d", sum, r.Total)
	}
	var pairSum int64
	for _, row := range r.Pair {
		for _, x := range row {
			pairSum += x
		}
	}
	if pairSum != r.Total {
		t.Fatalf("pair sum %d != total %d", pairSum, r.Total)
	}
}

func TestBlockBeatsWrapOnCommunication(t *testing.T) {
	// The paper's headline communication result (Tables 2 vs 5): at g=25
	// the block scheme generates substantially less traffic than wrap.
	for _, tm := range gen.Suite() {
		ops, part, ew := pipeline(tm.Build(), 25, 4)
		for _, p := range []int{16, 32} {
			wrap := Simulate(ops, sched.WrapMap(ops.F, ew, p)).Total
			block := Simulate(ops, sched.BlockMap(part, p)).Total
			if block >= wrap {
				t.Errorf("%s P=%d: block traffic %d not below wrap %d", tm.Name, p, block, wrap)
			}
		}
	}
}

func TestTrafficGrowsWithProcessors(t *testing.T) {
	// Paper: "total communication increases with the number of processors".
	ops, part, ew := pipeline(gen.Lap30(), 4, 4)
	var prevWrap, prevBlock int64 = -1, -1
	for _, p := range []int{1, 4, 16, 32} {
		w := Simulate(ops, sched.WrapMap(ops.F, ew, p)).Total
		b := Simulate(ops, sched.BlockMap(part, p)).Total
		if w < prevWrap {
			t.Errorf("wrap traffic decreased at P=%d: %d < %d", p, w, prevWrap)
		}
		if b < prevBlock {
			t.Errorf("block traffic decreased at P=%d: %d < %d", p, b, prevBlock)
		}
		prevWrap, prevBlock = w, b
	}
}

func TestLargerGrainLessTraffic(t *testing.T) {
	// Paper Table 2: grain 25 communicates less than grain 4.
	opsA, partA, _ := pipeline(gen.Lap30(), 4, 4)
	opsB, partB, _ := pipeline(gen.Lap30(), 25, 4)
	for _, p := range []int{16, 32} {
		a := Simulate(opsA, sched.BlockMap(partA, p)).Total
		b := Simulate(opsB, sched.BlockMap(partB, p)).Total
		if b >= a {
			t.Errorf("P=%d: g=25 traffic %d not below g=4 traffic %d", p, b, a)
		}
	}
}

func TestBlockHasFewerPartners(t *testing.T) {
	// Paper Section 5: wrap leads to processors communicating with many
	// others; block confines communication to small groups.
	ops, part, ew := pipeline(gen.Lap30(), 25, 4)
	wrap := Simulate(ops, sched.WrapMap(ops.F, ew, 32))
	block := Simulate(ops, sched.BlockMap(part, 32))
	if block.MeanPartners() >= wrap.MeanPartners() {
		t.Errorf("block mean partners %.1f not below wrap %.1f",
			block.MeanPartners(), wrap.MeanPartners())
	}
}

func TestSimulatePanicsOnMismatch(t *testing.T) {
	ops, _, ew := pipeline(gen.Grid5(3, 3), 4, 4)
	other, _, _ := pipeline(gen.Grid5(5, 5), 4, 4)
	s := sched.WrapMap(other.F, make([]int64, other.F.NNZ()), 2)
	_ = ew
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on factor/schedule mismatch")
		}
	}()
	Simulate(ops, s)
}

func TestHopWeightedTraffic(t *testing.T) {
	// Hand-checkable: a 4-proc hypercube (2D): distance(0,3)=2.
	r := &Result{P: 4, Pair: [][]int64{
		{0, 1, 0, 5},
		{0, 0, 0, 0},
		{0, 0, 0, 2},
		{0, 0, 0, 0},
	}}
	// 1*h(0,1) + 5*h(0,3) + 2*h(2,3) = 1*1 + 5*2 + 2*1 = 13.
	if got := r.HopWeightedTraffic(); got != 13 {
		t.Fatalf("hop-weighted = %d, want 13", got)
	}
}

func TestHopWeightedBlockLocality(t *testing.T) {
	// On the hypercube metric the block scheme's per-element cost must
	// stay no worse than wrap's (block confines traffic to groups).
	ops, part, ew := pipeline(gen.Lap30(), 25, 4)
	bs := sched.BlockMap(part, 32)
	ws := sched.WrapMap(ops.F, ew, 32)
	br := Simulate(ops, bs)
	wr := Simulate(ops, ws)
	bHops := float64(br.HopWeightedTraffic()) / float64(br.Total)
	wHops := float64(wr.HopWeightedTraffic()) / float64(wr.Total)
	t.Logf("mean hops per element: block %.2f, wrap %.2f", bHops, wHops)
	if bHops > wHops*1.15 {
		t.Errorf("block mean hops %.2f much worse than wrap %.2f", bHops, wHops)
	}
	if br.HopWeightedTraffic() >= wr.HopWeightedTraffic() {
		t.Errorf("block hop-weighted traffic %d not below wrap %d",
			br.HopWeightedTraffic(), wr.HopWeightedTraffic())
	}
}
