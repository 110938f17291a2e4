package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// order and symbolic are used by the relaxation tests below.

func analyzedMatrix(m *sparse.Matrix) *symbolic.Factor {
	pm, err := m.Permute(order.MMD(m))
	if err != nil {
		panic(err)
	}
	return symbolic.Analyze(pm)
}

func newPart(m *sparse.Matrix, g, w int) *Partition {
	return NewPartition(analyzedMatrix(m), Options{Grain: g, MinClusterWidth: w})
}

// checkInvariants verifies the structural invariants every partition must
// satisfy.
func checkInvariants(t *testing.T, p *Partition) {
	t.Helper()
	f := p.F
	// Clusters tile the columns contiguously.
	nextCol := 0
	for ci := range p.Clusters {
		cl := &p.Clusters[ci]
		if cl.ColLo != nextCol {
			t.Fatalf("cluster %d starts at %d, want %d", ci, cl.ColLo, nextCol)
		}
		if cl.ColHi < cl.ColLo {
			t.Fatalf("cluster %d empty", ci)
		}
		if cl.Single && cl.ColHi != cl.ColLo {
			t.Fatalf("single cluster %d spans %d..%d", ci, cl.ColLo, cl.ColHi)
		}
		if !cl.Single && cl.Width() < p.Opts.MinClusterWidth {
			t.Fatalf("cluster %d width %d below minimum %d", ci, cl.Width(), p.Opts.MinClusterWidth)
		}
		nextCol = cl.ColHi + 1
	}
	if nextCol != f.N {
		t.Fatalf("clusters cover %d of %d columns", nextCol, f.N)
	}
	// Every element mapped to exactly one unit; counts and work add up.
	elems := 0
	var work int64
	for ui := range p.Units {
		elems += p.Units[ui].Elems
		work += p.Units[ui].Work
	}
	if elems != f.NNZ() {
		t.Fatalf("unit elements sum to %d, want nnz %d", elems, f.NNZ())
	}
	if work != p.TotalWork {
		t.Fatalf("unit work sums to %d, want %d", work, p.TotalWork)
	}
	// Element-unit map consistent with unit extents.
	for j := 0; j < f.N; j++ {
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			i := f.RowInd[q]
			u := &p.Units[p.ElemUnit[q]]
			if j < u.ColLo || j > u.ColHi || i < u.RowLo || i > u.RowHi {
				t.Fatalf("element (%d,%d) mapped to unit %d with extents rows %d..%d cols %d..%d",
					i, j, u.ID, u.RowLo, u.RowHi, u.ColLo, u.ColHi)
			}
			if u.Kind == Triangle && (i > u.RowHi || j < u.ColLo) {
				t.Fatalf("triangle extent violation")
			}
		}
	}
	// No unit is empty, and dense units are truly dense: element count
	// equals extent area.
	for ui := range p.Units {
		u := &p.Units[ui]
		if u.Elems == 0 {
			t.Fatalf("unit %d (%v) holds no elements", ui, u.Kind)
		}
		switch u.Kind {
		case Triangle:
			m := u.RowHi - u.RowLo + 1
			if u.Elems != m*(m+1)/2 {
				t.Fatalf("triangle unit %d has %d elems, extent wants %d", ui, u.Elems, m*(m+1)/2)
			}
		case Rectangle:
			area := (u.RowHi - u.RowLo + 1) * (u.ColHi - u.ColLo + 1)
			if u.Elems != area {
				t.Fatalf("rect unit %d has %d elems, extent wants %d", ui, u.Elems, area)
			}
		}
	}
}

func TestPartitionInvariantsSuite(t *testing.T) {
	for _, tm := range gen.Suite() {
		for _, g := range []int{4, 25} {
			p := newPart(tm.Build(), g, 4)
			checkInvariants(t, p)
		}
	}
}

func TestPartitionInvariantsRandom(t *testing.T) {
	f := func(seed int64) bool {
		m := gen.Random(60, 1.5, seed)
		p := newPart(m, 4, 3)
		// Reuse invariant checks via a sub-test pattern: call and recover.
		st := &testing.T{}
		checkInvariants(st, p)
		return !st.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGrainControlsUnitCount(t *testing.T) {
	m := gen.Lap30()
	p4 := newPart(m, 4, 4)
	p25 := newPart(m, 25, 4)
	if len(p25.Units) >= len(p4.Units) {
		t.Errorf("g=25 has %d units, g=4 has %d; larger grain must give fewer units",
			len(p25.Units), len(p4.Units))
	}
	// Multi-unit dense blocks respect the grain on average.
	for _, p := range []*Partition{p4, p25} {
		for ci := range p.Clusters {
			cl := &p.Clusters[ci]
			if cl.Single {
				continue
			}
			if len(cl.TriUnits) > 1 {
				tri := 0
				for _, uid := range cl.TriAlloc {
					tri += p.Units[uid].Elems
				}
				if tri/len(cl.TriAlloc) < p.Opts.Grain {
					t.Fatalf("cluster %d triangle avg unit size %d below grain %d",
						ci, tri/len(cl.TriAlloc), p.Opts.Grain)
				}
			}
		}
	}
}

func TestMinWidthBreaksClusters(t *testing.T) {
	m := gen.Lap30()
	p2 := newPart(m, 4, 2)
	p8 := newPart(m, 4, 8)
	multi2, multi8 := 0, 0
	for ci := range p2.Clusters {
		if !p2.Clusters[ci].Single {
			multi2++
		}
	}
	for ci := range p8.Clusters {
		if !p8.Clusters[ci].Single {
			multi8++
		}
	}
	if multi8 >= multi2 {
		t.Errorf("width 8 has %d multi clusters, width 2 has %d; larger width must give fewer",
			multi8, multi2)
	}
	// With a huge width everything is single columns.
	pAll := newPart(m, 4, 10000)
	for ci := range pAll.Clusters {
		if !pAll.Clusters[ci].Single {
			t.Fatalf("cluster %d not single despite huge width", ci)
		}
	}
}

func TestFigure3Partition(t *testing.T) {
	// A synthetic cluster like Figure 3: one dense trailing supernode with
	// rectangles below. Build a matrix whose factor has a 6-column
	// supernode at columns 6..11 with two below-rectangles by construction:
	// columns 0..5 sparse, then a dense block.
	var edges [][2]int
	// Dense clique on 6..11 (the cluster triangle).
	for i := 6; i < 12; i++ {
		for j := 6; j < i; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	// Rows 12..13 and 15..16 dense against the clique (two rectangles,
	// split by the absent row 14).
	for _, r := range []int{12, 13, 15, 16} {
		for j := 6; j < 12; j++ {
			edges = append(edges, [2]int{r, j})
		}
	}
	// Node 17 hangs off column 12 only, so column 12's structure is not
	// nested in column 11's and the supernode ends at column 11 (otherwise
	// fill would extend the fundamental supernode through 12 and 13).
	edges = append(edges, [2]int{17, 12})
	m, err := sparse.NewPattern(18, edges)
	if err != nil {
		t.Fatal(err)
	}
	f := symbolic.Analyze(m) // natural order keeps the layout
	p := NewPartition(f, Options{Grain: 4, MinClusterWidth: 4})
	// Find the multi-column cluster at 6..11.
	var cl *Cluster
	for ci := range p.Clusters {
		if !p.Clusters[ci].Single && p.Clusters[ci].ColLo == 6 {
			cl = &p.Clusters[ci]
		}
	}
	if cl == nil {
		t.Fatal("no cluster found at columns 6..11")
	}
	if cl.ColHi != 11 {
		t.Fatalf("cluster 6..%d, want 6..11", cl.ColHi)
	}
	// Two dense rectangles below: rows 12..13 and 15..16.
	if len(cl.Rects) != 2 || cl.Rects[0].RowLo != 12 || cl.Rects[0].RowHi != 13 ||
		cl.Rects[1].RowLo != 15 || cl.Rects[1].RowHi != 16 {
		t.Fatalf("rects = %+v, want rows 12..13 and 15..16", cl.Rects)
	}
	// Each 2x6 rectangle with g=4 splits into a 1x3 grid (r21 r22 r23 in
	// the figure's style).
	for ri := range cl.Rects {
		r := &cl.Rects[ri]
		if len(r.Units) != 1 || len(r.Units[0]) != 3 {
			t.Errorf("rect %d grid = %dx%d, want 1x3", ri, len(r.Units), len(r.Units[0]))
		}
	}
	// Triangle of 21 elements with g=4: Pd=5, b=2 -> 2 triangles + 1 rect.
	if len(cl.TriUnits) != 2 {
		t.Errorf("triangle bands = %d, want 2", len(cl.TriUnits))
	}
	if len(cl.TriAlloc) != 3 {
		t.Errorf("triangle partition units = %d, want 3", len(cl.TriAlloc))
	}
	// Allocation order: triangles first, then the band rectangle.
	if p.Units[cl.TriAlloc[0]].Kind != Triangle || p.Units[cl.TriAlloc[1]].Kind != Triangle ||
		p.Units[cl.TriAlloc[2]].Kind != Rectangle {
		t.Errorf("allocation order wrong: %v %v %v",
			p.Units[cl.TriAlloc[0]].Kind, p.Units[cl.TriAlloc[1]].Kind, p.Units[cl.TriAlloc[2]].Kind)
	}
}

func TestUnitOfMatchesElemUnit(t *testing.T) {
	m := gen.Grid9(8, 8)
	p := newPart(m, 4, 3)
	f := p.F
	for j := 0; j < f.N; j++ {
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			if got, want := p.UnitOf(f.RowInd[q], j), int(p.ElemUnit[q]); got != want {
				t.Fatalf("UnitOf(%d,%d) = %d, want %d", f.RowInd[q], j, got, want)
			}
		}
	}
}

// depsEqual compares the categorical engine output with the oracle.
func depsEqual(p *Partition, oracle [][]int32) (missing, extra int) {
	for ui := range p.Units {
		got := p.Units[ui].Preds
		want := oracle[ui]
		gi, wi := 0, 0
		for gi < len(got) && wi < len(want) {
			switch {
			case got[gi] == want[wi]:
				gi++
				wi++
			case got[gi] < want[wi]:
				extra++
				gi++
			default:
				missing++
				wi++
			}
		}
		extra += len(got) - gi
		missing += len(want) - wi
	}
	return
}

func TestDepsMatchOracleSuite(t *testing.T) {
	for _, tm := range gen.Suite() {
		for _, g := range []int{4, 25} {
			f := analyzedMatrix(tm.Build())
			p := NewPartition(f, Options{Grain: g, MinClusterWidth: 4})
			oracle := p.DepsOracle(model.NewOps(f))
			missing, extra := depsEqual(p, oracle)
			if missing != 0 {
				t.Errorf("%s g=%d: engine missing %d oracle dependencies", tm.Name, g, missing)
			}
			if extra != 0 {
				t.Errorf("%s g=%d: engine reports %d dependencies the oracle does not", tm.Name, g, extra)
			}
		}
	}
}

func TestDepsMatchOracleRandom(t *testing.T) {
	f := func(seed int64) bool {
		m := gen.Random(45, 1.5, seed)
		fac := analyzedMatrix(m)
		p := NewPartition(fac, Options{Grain: 3, MinClusterWidth: 2})
		oracle := p.DepsOracle(model.NewOps(fac))
		missing, extra := depsEqual(p, oracle)
		return missing == 0 && extra == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDepsAcyclicAndOrdered(t *testing.T) {
	// A unit's predecessors always have source columns at or before the
	// target's columns, so dependency edges never point forward in the
	// cluster/column order — the graph is acyclic by construction.
	m := gen.Lap30()
	p := newPart(m, 4, 4)
	for ui := range p.Units {
		u := &p.Units[ui]
		for _, pr := range u.Preds {
			v := &p.Units[pr]
			if v.ColLo > u.ColHi {
				t.Fatalf("unit %d (cols %d..%d) depends on later unit %d (cols %d..%d)",
					ui, u.ColLo, u.ColHi, pr, v.ColLo, v.ColHi)
			}
		}
	}
}

func TestIndependentColumnsExist(t *testing.T) {
	m := gen.Lap30()
	p := newPart(m, 4, 4)
	indep := 0
	for ui := range p.Units {
		if p.Units[ui].Kind == Column && len(p.Units[ui].Preds) == 0 {
			indep++
		}
	}
	if indep == 0 {
		t.Error("no independent columns found; leaf columns of the etree should qualify")
	}
}

// TestPartitionAllocations pins the flat partitioner: clusters, bands and
// rectangle grids cut from shared chunks, every Preds list from one array,
// the dependency pass on stamp arrays — 73 005 allocations on LAP30 at
// g = 4 when each cluster piece, each edge-map bucket and each Preds list
// was its own.
func TestPartitionAllocations(t *testing.T) {
	f := analyzedMatrix(gen.Lap30())
	ew := model.ElementWork(model.NewOps(f))
	opts := Options{Grain: 4, MinClusterWidth: 4}
	if got := testing.AllocsPerRun(5, func() { NewPartitionWork(f, opts, ew) }); got > 2500 {
		t.Errorf("NewPartitionWork on LAP30 g=4: %.0f allocations, want <= 2500", got)
	}
}

func BenchmarkDepsOracleLap30(b *testing.B) {
	f := analyzedMatrix(gen.Lap30())
	p := NewPartition(f, Options{Grain: 4, MinClusterWidth: 4})
	ops := model.NewOps(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DepsOracle(ops)
	}
}

func TestRelaxedPartitionMatchesOracle(t *testing.T) {
	// Relaxed (zero-padded) factors keep the blocks dense on their
	// extents, so the categorical engine must still match the oracle.
	m := gen.Lap30()
	perm := order.MMD(m)
	perm, err := symbolic.PostOrderPerm(m, perm)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	f := symbolic.Analyze(pm)
	p := NewPartition(f, Options{Grain: 25, MinClusterWidth: 4, RelaxZeros: 0.15})
	if p.Relax.Merges == 0 {
		t.Fatal("relaxation inactive; test needs merges")
	}
	oracle := p.DepsOracle(model.NewOps(p.F))
	missing, extra := depsEqual(p, oracle)
	if missing != 0 || extra != 0 {
		t.Errorf("relaxed partition: %d missing, %d extra dependencies", missing, extra)
	}
	checkInvariants(t, p)
}

func TestPartitionDeterministic(t *testing.T) {
	f := analyzedMatrix(gen.Lap30())
	a := NewPartition(f, Options{Grain: 4, MinClusterWidth: 4})
	b := NewPartition(f, Options{Grain: 4, MinClusterWidth: 4})
	if len(a.Units) != len(b.Units) {
		t.Fatal("unit counts differ between runs")
	}
	for i := range a.Units {
		ua, ub := a.Units[i], b.Units[i]
		if ua.RowLo != ub.RowLo || ua.ColLo != ub.ColLo || ua.Work != ub.Work ||
			len(ua.Preds) != len(ub.Preds) {
			t.Fatalf("unit %d differs between runs", i)
		}
		for k := range ua.Preds {
			if ua.Preds[k] != ub.Preds[k] {
				t.Fatalf("unit %d preds differ", i)
			}
		}
	}
}

// TestNewPartitionWorkMatchesNewPartition: handing the partitioner the
// element work its caller already holds changes nothing; with relaxation
// on, the work of the unpadded factor is not the padded factor's and must
// be ignored.
func TestNewPartitionWorkMatchesNewPartition(t *testing.T) {
	f := analyzedMatrix(gen.Lap30())
	ew := model.ElementWork(model.NewOps(f))
	for _, opts := range []Options{{}, {Grain: 25}, {RelaxZeros: 0.3}} {
		want, got := NewPartition(f, opts), NewPartitionWork(f, opts, ew)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: partition differs when the element work is supplied", opts)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("element work of the wrong length: no panic")
		}
	}()
	NewPartitionWork(f, Options{}, ew[1:])
}
