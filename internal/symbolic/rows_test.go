package symbolic

import (
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/order"
)

// TestRowIndexShape: the row index lists every off-diagonal position
// exactly once, under its own row, with the columns of a row ascending —
// the order every numeric kernel applies a column's updates in — and
// agrees with Has; a relaxed (padded) factor and the degenerate sizes
// included. Concurrent first calls get the one index.
func TestRowIndexShape(t *testing.T) {
	lap := gen.Lap30()
	pm, err := lap.Permute(order.MMD(lap))
	if err != nil {
		t.Fatal(err)
	}
	padded, _ := Relax(Analyze(pm), 0.3)
	for name, f := range map[string]*Factor{
		"lap30/mmd":     Analyze(pm),
		"lap30/natural": Analyze(lap),
		"lap30/relaxed": padded,
		"bus1138":       Analyze(gen.PowerBus(1138, 321, 1138)),
		"diagonal":      Analyze(gen.Random(5, 0, 1)),
		"n=1":           Analyze(gen.Random(1, 0, 1)),
		"n=0":           Analyze(gen.Random(0, 0, 1)),
	} {
		got := make([]*RowIndex, 4)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = f.Rows()
			}()
		}
		wg.Wait()
		ri := f.Rows()
		for g := range got {
			if got[g] != ri {
				t.Fatalf("%s: concurrent Rows calls returned different indexes", name)
			}
		}
		if len(ri.Ptr) != f.N+1 || ri.Ptr[0] != 0 || int(ri.Ptr[f.N]) != f.NNZ()-f.N ||
			len(ri.Cols) != f.NNZ()-f.N || len(ri.Pos) != len(ri.Cols) {
			t.Fatalf("%s: shape: %d pointers, %d columns, %d positions for n = %d, nnz = %d",
				name, len(ri.Ptr), len(ri.Cols), len(ri.Pos), f.N, f.NNZ())
		}
		colOf := f.ColIndex()
		seen := make([]bool, f.NNZ())
		for r := 0; r < f.N; r++ {
			prev := int32(-1)
			for e := ri.Ptr[r]; e < ri.Ptr[r+1]; e++ {
				k, q := ri.Cols[e], ri.Pos[e]
				if k <= prev || int(k) >= r {
					t.Fatalf("%s: row %d lists column %d after %d", name, r, k, prev)
				}
				prev = k
				if seen[q] {
					t.Fatalf("%s: position %d listed twice", name, q)
				}
				seen[q] = true
				if colOf[q] != k || f.RowInd[q] != r || !f.Has(r, int(k)) {
					t.Fatalf("%s: row %d entry (column %d, position %d) is element (%d, %d)", name, r, k, q, f.RowInd[q], colOf[q])
				}
			}
		}
		for j := 0; j < f.N; j++ {
			for q := f.ColPtr[j] + 1; q < f.ColPtr[j+1]; q++ {
				if !seen[q] {
					t.Fatalf("%s: off-diagonal position %d of column %d is in no row", name, q, j)
				}
			}
		}
	}
}
