package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// categoryMatrix builds a matrix whose factor exhibits every one of the
// paper's ten dependency categories (Section 3.3, Figure 4) under
// Options{Grain: 4, MinClusterWidth: 5}:
//
//   - columns 0..3: single-column clusters feeding later blocks
//     (categories 1-3);
//   - cluster A: columns 4..9, a 6-wide supernode whose triangle splits
//     into 2 bands with dense rectangles below on rows 10..13 and rows
//     16..19 (each a 4x6 block split into a 2x3 grid);
//   - columns 10..13: single-column clusters updated by A's rectangles
//     (categories 6 and 7). Pendant nodes 26..29, one per column, keep
//     their structures non-nested so fill cannot merge them into a
//     supernode;
//   - columns 14..15: isolated (independent single columns);
//   - cluster C: the trailing supernode starting at column 16 (fill
//     extends it through the pendants to column 29), whose band triangles
//     and band rectangles realize categories 4, 5, 8, 9 and 10 — with the
//     category 9 source pairs coming from A's two rectangle row-bands.
func categoryMatrix() *sparse.Matrix {
	var edges [][2]int
	clique := func(lo, hi int) {
		for i := lo; i <= hi; i++ {
			for j := lo; j < i; j++ {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	connect := func(rows []int, lo, hi int) {
		for _, r := range rows {
			for j := lo; j <= hi; j++ {
				edges = append(edges, [2]int{r, j})
			}
		}
	}
	// Leading sparse columns.
	edges = append(edges, [2]int{0, 1}, [2]int{0, 2}) // col 0 updates cols 1,2
	edges = append(edges, [2]int{1, 4}, [2]int{1, 10})
	edges = append(edges, [2]int{2, 10}, [2]int{2, 16})
	edges = append(edges, [2]int{3, 5}, [2]int{3, 17})
	// Cluster A: columns 4..9 dense, rows 10..13 and 16..19 below.
	clique(4, 9)
	connect([]int{10, 11, 12, 13, 16, 17, 18, 19}, 4, 9)
	// Private pendants keep 10..13 single-column clusters.
	edges = append(edges, [2]int{10, 26}, [2]int{11, 27}, [2]int{12, 28}, [2]int{13, 29})
	// Trailing block: columns 16..21 dense with rows 22..25 below; fill
	// through the pendants extends the supernode to column 29.
	clique(16, 21)
	connect([]int{22, 23, 24, 25}, 16, 21)
	m, err := sparse.NewPattern(30, edges)
	if err != nil {
		panic(err)
	}
	return m
}

// classifyOp maps one element update to the paper's category number.
// Internal operations (both sources inside the target unit) return 0.
func classifyOp(p *Partition, u update) int {
	sI := p.Units[p.ElemUnit[u.SrcI]]
	sJ := p.Units[p.ElemUnit[u.SrcJ]]
	tgt := p.Units[p.ElemUnit[u.Tgt]]
	if sI.ID == tgt.ID && sJ.ID == tgt.ID {
		return 0 // internal
	}
	same := sI.ID == sJ.ID
	switch sJ.Kind {
	case Column:
		// Both sources live in the same source column.
		switch tgt.Kind {
		case Column:
			return 1
		case Triangle:
			return 2
		default:
			return 3
		}
	case Triangle:
		// The (j,k) source comes from a triangle; target must be a
		// rectangle (a triangle target would make the op internal).
		if sI.ID == tgt.ID {
			return 4 // the rectangle supplies its own (i,k)
		}
		return 5 // triangle + rectangle update a rectangle
	default: // Rectangle provides (j,k)
		switch tgt.Kind {
		case Column:
			if same {
				return 6
			}
			return 7
		case Triangle:
			if same {
				return 8
			}
			return 9
		default:
			if sI.Kind == Triangle {
				return 5 // triangle supplies (i,k); rectangle the (j,k)
			}
			return 10
		}
	}
}

func TestDependencyCategories(t *testing.T) {
	m := categoryMatrix()
	f := symbolic.Analyze(m) // natural order preserves the construction
	p := NewPartition(f, Options{Grain: 4, MinClusterWidth: 5})

	// Sanity: the intended layout materialized.
	var multi []*Cluster
	for ci := range p.Clusters {
		if !p.Clusters[ci].Single {
			multi = append(multi, &p.Clusters[ci])
		}
	}
	if len(multi) != 2 || multi[0].ColLo != 4 || multi[0].ColHi != 9 || multi[1].ColLo != 16 {
		t.Fatalf("unexpected clusters: %+v", multi)
	}
	if len(multi[0].TriUnits) < 2 || len(multi[1].TriUnits) < 3 {
		t.Fatalf("triangle bands: A=%d C=%d, want >=2 and >=3",
			len(multi[0].TriUnits), len(multi[1].TriUnits))
	}
	if len(multi[0].Rects) != 2 {
		t.Fatalf("cluster A has %d rectangles, want 2 (rows 10..13 and 16..19)", len(multi[0].Rects))
	}
	for j := 10; j <= 13; j++ {
		if !p.Clusters[p.ColCluster[j]].Single {
			t.Fatalf("column %d is not a single-column cluster", j)
		}
	}

	ops := model.NewOps(f)
	seen := make(map[int]int)
	inPreds := func(tgt, src int32) bool {
		if tgt == src {
			return true
		}
		for _, pr := range p.Units[tgt].Preds {
			if pr == src {
				return true
			}
		}
		return false
	}
	forEachUpdate(ops, func(u update) {
		cat := classifyOp(p, u)
		seen[cat]++
		// Completeness: every external source unit must be a predecessor.
		tu := p.ElemUnit[u.Tgt]
		if !inPreds(tu, p.ElemUnit[u.SrcI]) || !inPreds(tu, p.ElemUnit[u.SrcJ]) {
			i, j := f.RowInd[u.Tgt], f.RowInd[u.SrcJ]
			t.Fatalf("update into (%d,?) target unit %d misses a source unit in Preds (srcJ row %d)",
				i, tu, j)
		}
	})
	for cat := 1; cat <= 10; cat++ {
		if seen[cat] == 0 {
			t.Errorf("category %d never occurred (histogram: %v)", cat, seen)
		}
	}
	if seen[0] == 0 {
		t.Errorf("no internal updates seen — implausible")
	}
	t.Logf("category histogram: %v", seen)
}

func TestClassifierCoversAllOpsOnSuiteMatrix(t *testing.T) {
	// On a real problem every op classifies into 0..10 and categories
	// 1-3 (column sources) plus several dense ones occur.
	f := analyzedMatrix(gen.Lap30())
	p := NewPartition(f, Options{Grain: 4, MinClusterWidth: 4})
	ops := model.NewOps(f)
	seen := make(map[int]int)
	forEachUpdate(ops, func(u update) {
		seen[classifyOp(p, u)]++
	})
	for cat := range seen {
		if cat < 0 || cat > 10 {
			t.Fatalf("classifier produced out-of-range category %d", cat)
		}
	}
	for _, cat := range []int{1, 2, 3} {
		if seen[cat] == 0 {
			t.Errorf("category %d missing on LAP30 (histogram %v)", cat, seen)
		}
	}
}

// update is one pair update L[Tgt] -= L[SrcI]*L[SrcJ] by factor position:
// for target (i, j) updated from column k, SrcI is (i, k) and SrcJ (j, k).
type update struct {
	Tgt, SrcI, SrcJ int32
}

// forEachUpdate is model.Ops.ForEachRun with the per-element loop supplied:
// one callback per pair update, targets, sources and rows all increasing.
func forEachUpdate(ops *model.Ops, fn func(u update)) {
	rowInd := ops.F.RowInd
	ops.ForEachRun(func(r model.Run) {
		for q := r.Lo; q < r.Hi; q++ {
			fn(update{Tgt: r.Tgt[rowInd[q]], SrcI: q, SrcJ: r.Lo})
		}
	})
}
