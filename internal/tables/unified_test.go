package tables

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/sparse"
)

// commGoldenProblem is the pinned small problem of the Ext-M golden test:
// small enough that the full pipeline runs in milliseconds, big enough
// that every strategy communicates at P=4.
func commGoldenProblem(t *testing.T) *Problem {
	t.Helper()
	tm := gen.TestMatrix{Name: "GRID9-6", Build: func() *sparse.Matrix { return gen.Grid9(6, 6) }}
	p, err := LoadProblem(tm)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCommUnifiedGolden pins the exact rendered Ext-M table for a small
// problem, so any regression in the whole comm-aware pipeline — fetch
// attribution, message counting, cost model, dynamic simulation, table
// formatting — surfaces in go test, not in a silently-changed paperbench
// report. The pinned numbers also lock in the paper's qualitative claim:
// at P=4 wrap wins the compute-only span (1084 vs block's 1098) but loses
// the unified span once communication is charged (1994 vs 1370).
func TestCommUnifiedGolden(t *testing.T) {
	p := commGoldenProblem(t)
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	rows, err := UnifiedComm(p, []int{2, 4}, []string{"block", "contiguous", "wrap"}, Production, cm)
	if err != nil {
		t.Fatal(err)
	}
	got := FormatUnifiedComm("GRID9-6", cm, rows)
	const want = "Ext-M: Unified comm-aware makespan (dynamic exec), GRID9-6, g=25, alpha=2, beta=10\n" +
		"Appl     P  Strategy    Span compute  Span comm  Fetch vol  Msgs  Comm frac  Best\n" +
		"GRID9-6  2  block       1117          1247       68         5     0.108      *\n" +
		"GRID9-6  2  contiguous  1450          1582       82         5     0.123      \n" +
		"GRID9-6  2  wrap        1123          1463       158        18    0.245      \n" +
		"GRID9-6  4  block       1098          1370       131        10    0.191      *\n" +
		"GRID9-6  4  contiguous  1426          1768       192        15    0.259      \n" +
		"GRID9-6  4  wrap        1084          1994       371        48    0.444      \n"
	if got != want {
		t.Errorf("Ext-M golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCommUnifiedShapes covers the defaulting paths the golden test fixes:
// nil strategy names select every registered strategy, exactly one row per
// (P, strategy) is produced, and exactly one Best row per P.
func TestCommUnifiedShapes(t *testing.T) {
	p := commGoldenProblem(t)
	procs := []int{1, 4}
	rows, err := UnifiedComm(p, procs, nil, Production, exec.CommModel{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	perP := make(map[int]int)
	bestPerP := make(map[int]int)
	for _, r := range rows {
		perP[r.P]++
		if r.Best {
			bestPerP[r.P]++
		}
		if r.CommSpan < r.ComputeSpan {
			t.Errorf("%s P=%d: comm span %d below compute span %d",
				r.Strategy, r.P, r.CommSpan, r.ComputeSpan)
		}
		if r.P == 1 && (r.FetchVol != 0 || r.Msgs != 0 || r.CommSpan != r.ComputeSpan) {
			t.Errorf("P=1 row communicates: %+v", r)
		}
	}
	nstrat := len(rows) / len(procs)
	for _, np := range procs {
		if perP[np] != nstrat {
			t.Errorf("P=%d: %d rows, want %d (one per registered strategy)", np, perP[np], nstrat)
		}
		if bestPerP[np] != 1 {
			t.Errorf("P=%d: %d Best rows, want exactly 1", np, bestPerP[np])
		}
	}
	// An empty non-nil names slice selects every registered strategy too.
	empty, err := UnifiedComm(p, []int{2}, []string{}, Production, exec.CommModel{})
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != nstrat {
		t.Errorf("empty names: %d rows, want %d", len(empty), nstrat)
	}
}
