package model

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

func analyzed(seed int64) *symbolic.Factor {
	m := gen.Random(35, 1.3, seed)
	pm, err := m.Permute(order.MMD(m))
	if err != nil {
		panic(err)
	}
	return symbolic.Analyze(pm)
}

func TestForEachUpdateCountMatchesFormula(t *testing.T) {
	f := func(seed int64) bool {
		fac := analyzed(seed)
		o := NewOps(fac)
		var count int64
		o.ForEachUpdate(func(Update) { count++ })
		return count == countUpdates(fac)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdatesAreValid(t *testing.T) {
	fac := analyzed(7)
	o := NewOps(fac)
	// For each update, verify the index algebra: Tgt=(i,j), SrcI=(i,k),
	// SrcJ=(j,k) with k < j <= i.
	colOf := make([]int, fac.NNZ())
	for j := 0; j < fac.N; j++ {
		for p := fac.ColPtr[j]; p < fac.ColPtr[j+1]; p++ {
			colOf[p] = j
		}
	}
	o.ForEachUpdate(func(u Update) {
		i := fac.RowInd[u.Tgt]
		j := colOf[u.Tgt]
		si, sk := fac.RowInd[u.SrcI], colOf[u.SrcI]
		sj, sk2 := fac.RowInd[u.SrcJ], colOf[u.SrcJ]
		if si != i || int(sj) != int(j) || sk != sk2 || sk >= j || int(j) > int(i) {
			t.Fatalf("bad update: tgt=(%d,%d) srcI=(%d,%d) srcJ=(%d,%d)", i, j, si, sk, sj, sk2)
		}
	})
}

// TestRunsVisitTargetsInOrder pins the order every first-use attribution
// (and the closed form of traffic.FetchStats on column schedules) relies on: target
// columns increasing, source columns increasing within a target, and each
// run the suffix of its source column starting at the target's row.
func TestRunsVisitTargetsInOrder(t *testing.T) {
	fac := analyzed(13)
	o := NewOps(fac)
	colOf := make([]int, fac.NNZ())
	for j := 0; j < fac.N; j++ {
		for p := fac.ColPtr[j]; p < fac.ColPtr[j+1]; p++ {
			colOf[p] = j
		}
	}
	lastCol, lastSrc, runs := -1, -1, 0
	o.ForEachRun(func(r Run) {
		runs++
		k := colOf[r.Lo]
		if r.Col < lastCol || (r.Col == lastCol && k <= lastSrc) {
			t.Fatalf("run (target %d, source %d) follows (target %d, source %d)", r.Col, k, lastCol, lastSrc)
		}
		lastCol, lastSrc = r.Col, k
		if int(fac.RowInd[r.Lo]) != r.Col || k >= r.Col || int(r.Hi) != fac.ColPtr[k+1] {
			t.Fatalf("run of target %d: sources [%d, %d) are not the suffix of column %d from row %d", r.Col, r.Lo, r.Hi, k, r.Col)
		}
		for q := r.Lo; q < r.Hi; q++ {
			if tgt := r.Tgt[fac.RowInd[q]]; colOf[tgt] != r.Col || fac.RowInd[tgt] != fac.RowInd[q] {
				t.Fatalf("run of target %d: source row %d scatters to position %d", r.Col, fac.RowInd[q], tgt)
			}
		}
	})
	if runs != fac.NNZ()-fac.N {
		t.Fatalf("%d runs, want one per off-diagonal nonzero (%d)", runs, fac.NNZ()-fac.N)
	}
}

func TestUpdateCountsDiagonal(t *testing.T) {
	// For the diagonal (j,j), the update count equals the number of
	// off-diagonal nonzeros in row j to the left of j.
	fac := analyzed(11)
	o := NewOps(fac)
	counts := o.UpdateCounts()
	for j := 0; j < fac.N; j++ {
		if got, want := counts[fac.ColPtr[j]], int32(len(o.RowCols(j))); got != want {
			t.Fatalf("diag count col %d = %d, want %d", j, got, want)
		}
	}
}

func TestElementWorkTotals(t *testing.T) {
	f := func(seed int64) bool {
		fac := analyzed(seed)
		o := NewOps(fac)
		ew := ElementWork(o)
		// Total = 2*U + nnz(L), the identity used to validate against the
		// paper's Table 5 P=1 work numbers.
		want := 2*countUpdates(fac) + int64(fac.NNZ())
		if TotalWork(ew) != want {
			return false
		}
		cw := ColumnWork(fac, ew)
		var s int64
		for _, w := range cw {
			s += w
		}
		return s == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseWorkClosedForm(t *testing.T) {
	// For a dense matrix, work(i,j) = 2*(j) + 1 with 0-based j (j updates
	// from columns 0..j-1), so total = sum_j (n-j)*(2j+1).
	n := 10
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	sm, err := sparse.NewPattern(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOps(symbolic.Analyze(sm))
	ew := ElementWork(o)
	var want int64
	for j := 0; j < n; j++ {
		want += int64(n-j) * int64(2*j+1)
	}
	if got := TotalWork(ew); got != want {
		t.Fatalf("dense total work = %d, want %d", got, want)
	}
}

func TestRowColsMatchColumnStructure(t *testing.T) {
	fac := analyzed(9)
	o := NewOps(fac)
	// (j in RowCols(r)) iff (r in Col(j) below diagonal).
	count := 0
	for r := 0; r < fac.N; r++ {
		for _, j := range o.RowCols(r) {
			if !fac.Has(r, int(j)) {
				t.Fatalf("RowCols(%d) lists %d but factor lacks the entry", r, j)
			}
			count++
		}
	}
	if count != fac.NNZ()-fac.N {
		t.Fatalf("row structure holds %d entries, want %d", count, fac.NNZ()-fac.N)
	}
}

// TestRowIndexMatchesPerRowLists rebuilds the row index the way NewOps
// did before it moved to two arenas — one appended list per row — and
// holds RowCols and the positions the runs give to it.
func TestRowIndexMatchesPerRowLists(t *testing.T) {
	facs := []*symbolic.Factor{analyzed(3), analyzed(9), symbolic.Analyze(gen.Random(1, 0, 1)), symbolic.Analyze(gen.Random(0, 0, 1))}
	lap := gen.Lap30()
	pm, err := lap.Permute(order.MMD(lap))
	if err != nil {
		t.Fatal(err)
	}
	for _, fac := range append(facs, symbolic.Analyze(pm)) {
		cols := make([][]int32, fac.N)
		pos := make([][]int32, fac.N)
		for j := 0; j < fac.N; j++ {
			for t, i := range fac.Col(j)[1:] {
				cols[i] = append(cols[i], int32(j))
				pos[i] = append(pos[i], int32(fac.ColPtr[j]+1+t))
			}
		}
		o := NewOps(fac)
		for r := 0; r < fac.N; r++ {
			if !slices.Equal(o.RowCols(r), cols[r]) || !slices.Equal(fac.AppendRowPos(nil, r), pos[r]) {
				t.Fatalf("n=%d: row %d of the index departs from the per-row lists", fac.N, r)
			}
		}
	}
}

func TestNewOpsAllocations(t *testing.T) {
	fac := analyzed(9)
	if got := testing.AllocsPerRun(10, func() { NewOps(fac) }); got > 6 {
		t.Errorf("NewOps allocates %.0f objects a call, want <= 6", got)
	}
}
