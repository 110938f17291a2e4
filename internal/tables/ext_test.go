package tables

import "testing"

func TestRelaxSweepShapes(t *testing.T) {
	rows, err := RelaxSweep(loadLap(t), 16, 25, []float64{0, 0.1, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Merges != 0 || rows[0].PaddedNNZ != 0 {
		t.Errorf("frac=0 row must be unrelaxed: %+v", rows[0])
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Supernodes > rows[i-1].Supernodes {
			t.Errorf("supernodes increased with padding budget: %+v -> %+v", rows[i-1], rows[i])
		}
		if rows[i].TotalWork < rows[0].TotalWork {
			t.Errorf("padded work below unpadded: %+v", rows[i])
		}
	}
	// Relaxation merges supernodes at the cost of extra (padded) work —
	// the honest trade-off under the paper's element-level cost model.
	last := rows[len(rows)-1]
	if last.Supernodes >= rows[0].Supernodes {
		t.Errorf("top budget did not reduce supernodes: %d vs %d",
			last.Supernodes, rows[0].Supernodes)
	}
	if last.TotalWork <= rows[0].TotalWork {
		t.Errorf("padding added no work: %d vs %d — stats look wrong",
			last.TotalWork, rows[0].TotalWork)
	}
	_ = FormatRelaxSweep("LAP30", 16, 25, rows)
}

func TestAllocCompareImproves(t *testing.T) {
	lap := loadLap(t)
	rows := must(AllocCompare([]*Problem{lap}))(t)
	var better, worse int
	for _, r := range rows {
		if r.AGreedy < r.A34 {
			better++
		}
		if r.AGreedy > r.A34 {
			worse++
		}
	}
	if better == 0 {
		t.Errorf("greedy allocator never improved balance: %+v", rows)
	}
	_ = FormatAllocCompare(rows)
}

func TestOrderCompareShapes(t *testing.T) {
	rows, err := OrderCompare(loadLap(t), 16)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]OrderRow{}
	for _, r := range rows {
		byName[r.Ordering] = r
	}
	if byName["MMD"].FactorNNZ >= byName["natural"].FactorNNZ {
		t.Error("MMD fill not below natural")
	}
	if byName["MMD+post"].FactorNNZ != byName["MMD"].FactorNNZ {
		t.Error("postordering changed fill")
	}
	if byName["ND"].FactorNNZ >= byName["natural"].FactorNNZ {
		t.Error("ND fill not below natural")
	}
	_ = FormatOrderCompare("LAP30", 16, rows)
}

func TestSolveBalanceShapes(t *testing.T) {
	lap := loadLap(t)
	rows := must(SolveBalance([]*Problem{lap}))(t)
	for _, r := range rows {
		// Combined imbalance is a work-weighted mix; it cannot exceed the
		// max of the two phases' imbalances by construction.
		max := r.FactorABlock
		if r.SolveABlock > max {
			max = r.SolveABlock
		}
		if r.CombinedABlock > max+1e-9 {
			t.Errorf("combined A %.3f above both phases: %+v", r.CombinedABlock, r)
		}
		if r.SolveAWrap > 0.6 {
			t.Errorf("wrap solve imbalance implausibly high: %+v", r)
		}
	}
	_ = FormatSolveBalance(rows)
}

func TestDynamicCompareRecovers(t *testing.T) {
	lap := loadLap(t)
	rows := must(DynamicCompare([]*Problem{lap}))(t)
	for _, r := range rows {
		if r.DynamicEff < r.StaticEff-1e-9 {
			t.Errorf("dynamic execution worse than static: %+v", r)
		}
		if r.DynamicEff > r.CritPathEff+1e-9 && r.CritPathEff <= 1 {
			t.Errorf("dynamic efficiency above critical-path bound: %+v", r)
		}
	}
	_ = FormatDynamicCompare(rows)
}

func TestCommMakespanShapes(t *testing.T) {
	lap := loadLap(t)
	rows := must(CommMakespan(lap, 16, []float64{0, 5, 20}))(t)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.BlockSpan <= 0 || r.WrapSpan <= 0 {
			t.Fatalf("nonpositive makespan: %+v", r)
		}
		if i > 0 {
			if r.BlockSpan < rows[i-1].BlockSpan || r.WrapSpan < rows[i-1].WrapSpan {
				t.Errorf("makespan decreased with higher comm cost: %+v", rows)
			}
		}
	}
	// The gap must widen with communication cost (block saves traffic).
	gap0 := float64(rows[0].WrapSpan) / float64(rows[0].BlockSpan)
	gapN := float64(rows[len(rows)-1].WrapSpan) / float64(rows[len(rows)-1].BlockSpan)
	if gapN <= gap0 {
		t.Errorf("wrap/block makespan ratio did not grow with comm cost: %.2f -> %.2f", gap0, gapN)
	}
	_ = FormatCommMakespan("LAP30", 16, rows)
}
