package tables

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/strategy"
)

// TestTile2DShapes covers the Ext-T table's structural contract: one row
// per (P, 2D strategy), exactly one Best row per P, fan-out plus fan-in
// partitioning the traffic total on every row, P=1 rows communicating
// nothing, and the col2d:wrap lift reproducing the 1D wrap traffic of the
// Ext-M study's fetch attribution.
func TestTile2DShapes(t *testing.T) {
	p := commGoldenProblem(t)
	procs := []int{1, 4}
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	rows, err := Tile2D(p, procs, nil, strategy.Options{}, cm)
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
		if r.FanOut+r.FanIn != r.Traffic {
			t.Errorf("%s P=%d: fan-out %d + fan-in %d != traffic %d",
				r.Strategy, r.P, r.FanOut, r.FanIn, r.Traffic)
		}
		if r.CommSpan < r.ComputeSpan {
			t.Errorf("%s P=%d: comm span %d below compute span %d",
				r.Strategy, r.P, r.CommSpan, r.ComputeSpan)
		}
		if r.P == 1 && (r.Traffic != 0 || r.CommSpan != r.ComputeSpan) {
			t.Errorf("P=1 row communicates: %+v", r)
		}
		if r.R < 1 || r.R > p.F.N {
			t.Errorf("%s P=%d: implausible interval count R=%d", r.Strategy, r.P, r.R)
		}
	}
	nstrat := len(rows) / len(procs)
	for _, np := range procs {
		if perP[np] != nstrat {
			t.Errorf("P=%d: %d rows, want %d", np, perP[np], nstrat)
		}
		if bestPerP[np] != 1 {
			t.Errorf("P=%d: %d Best rows, want exactly 1", np, bestPerP[np])
		}
	}

	// The col2d:wrap row must agree with the 1D wrap fetch volume of the
	// Ext-M study (the lift is exact, not approximately equal).
	urows, err := UnifiedComm(p, []int{4}, []string{"wrap"}, Production, cm)
	if err != nil {
		t.Fatal(err)
	}
	var lifted *Tile2DRow
	for i := range rows {
		if rows[i].P == 4 && rows[i].Strategy == "col2d:wrap" {
			lifted = &rows[i]
		}
	}
	if lifted == nil {
		t.Fatal("no col2d:wrap row at P=4")
	}
	if lifted.Traffic != urows[0].FetchVol {
		t.Errorf("col2d:wrap traffic %d != 1D wrap fetch volume %d", lifted.Traffic, urows[0].FetchVol)
	}
	if lifted.CommSpan != urows[0].CommSpan {
		t.Errorf("col2d:wrap comm span %d != 1D wrap comm span %d", lifted.CommSpan, urows[0].CommSpan)
	}
}
