package tables

import "testing"

// TestStrategyCompareGreedyImproves: the work-aware greedy allocator (the
// paper's Section 5 suggestion, strategy blockgreedy) balances LAP30
// better than the Section 3.4 allocator (block) at some P of the Ext-S
// table.
func TestStrategyCompareGreedyImproves(t *testing.T) {
	rows := must(StrategyCompare([]*Problem{loadLap(t)}, DefaultProcs, []string{"block", "blockgreedy"}, Production))(t)
	a := make(map[string]map[int]float64)
	for _, r := range rows {
		if a[r.Strategy] == nil {
			a[r.Strategy] = make(map[int]float64)
		}
		a[r.Strategy][r.P] = r.A
	}
	better := 0
	for _, np := range DefaultProcs {
		if a["blockgreedy"][np] < a["block"][np] {
			better++
		}
	}
	if better == 0 {
		t.Errorf("blockgreedy never improved A over block: %v", a)
	}
}
