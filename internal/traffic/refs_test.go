package traffic

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

func refsTestOps(t *testing.T, m *sparse.Matrix) *model.Ops {
	t.Helper()
	perm := order.MMD(m)
	pm, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	return model.NewOps(symbolic.Analyze(pm))
}

// refsTotal computes the deduplicated traffic of a column schedule from
// ColumnRefs alone: per (source column, fetching processor), the volume
// of the processor's smallest target column (reference sets are nested
// suffixes, so the first fetch covers all later ones).
func refsTotal(ops *model.Ops, refs [][]ColRef, owner []int32) int64 {
	n := ops.F.N
	seen := make(map[int64]struct{})
	var total int64
	for j := 0; j < n; j++ { // increasing j == increasing target column
		for _, r := range refs[j] {
			if owner[r.Col] == owner[j] {
				continue
			}
			key := int64(r.Col)<<32 | int64(owner[j])
			if _, ok := seen[key]; ok {
				continue
			}
			seen[key] = struct{}{}
			total += r.Vol
		}
	}
	return total
}

// TestColumnRefsVolumes cross-checks every reference volume against a
// brute-force scan of the column structure.
func TestColumnRefsVolumes(t *testing.T) {
	ops := refsTestOps(t, gen.Grid9(6, 6))
	f := ops.F
	refs := ColumnRefs(ops)
	if len(refs) != f.N {
		t.Fatalf("ColumnRefs returned %d targets, factor has %d columns", len(refs), f.N)
	}
	for j := 0; j < f.N; j++ {
		rc := ops.RowCols(j)
		if len(refs[j]) != len(rc) {
			t.Fatalf("column %d: %d refs, row structure has %d entries", j, len(refs[j]), len(rc))
		}
		for t2, r := range refs[j] {
			if r.Col != rc[t2] {
				t.Fatalf("column %d ref %d: Col = %d, want %d", j, t2, r.Col, rc[t2])
			}
			var want int64
			for _, i := range f.Col(int(r.Col)) {
				if int(i) >= j {
					want++
				}
			}
			if r.Vol != want {
				t.Fatalf("column %d <- column %d: Vol = %d, brute count %d", j, r.Col, r.Vol, want)
			}
		}
	}
}

// TestColumnRefsReproduceSimulate: the refs-derived dedup total must
// equal Simulate's traffic for column-granular schedules — the identity
// that makes ColumnRefs a valid cost oracle for contiguous splits. The
// one-column-per-processor case (P = n > 64) also exercises masks of more
// than one word per element.
func TestColumnRefsReproduceSimulate(t *testing.T) {
	for name, m := range map[string]*sparse.Matrix{
		"grid5-6x6":   gen.Grid5(6, 6),
		"grid9-10x10": gen.Grid9(10, 10),
	} {
		ops := refsTestOps(t, m)
		f := ops.F
		refs := ColumnRefs(ops)
		schedules := map[string][]int32{}
		ident := make([]int32, f.N)
		wrap3 := make([]int32, f.N)
		contig4 := make([]int32, f.N)
		for j := 0; j < f.N; j++ {
			ident[j] = int32(j)
			wrap3[j] = int32(j % 3)
			contig4[j] = int32(j * 4 / f.N)
		}
		schedules["one-col-per-proc"] = ident
		schedules["wrap3"] = wrap3
		schedules["contig4"] = contig4
		procs := map[string]int{"one-col-per-proc": f.N, "wrap3": 3, "contig4": 4}
		for sname, owner := range schedules {
			p := procs[sname]
			sc := sched.ColumnMap(f, model.ElementWork(ops), p, owner)
			if got, want := refsTotal(ops, refs, owner), Simulate(sc).Total; got != want {
				t.Errorf("%s/%s: refs-derived total %d, Simulate total %d", name, sname, got, want)
			}
		}
	}
}
