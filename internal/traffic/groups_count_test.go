package traffic_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/strategy"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

// TestTileGroupsCount pins what the searches' groups cost: on LAP30 and
// BUS1138, the tiles of the rectilinear cut at P = 4 and 16 (the rect2d
// descent's), the columns and the grain-4 unit blocks (refine's) hold
// records over the positions they read — a few thousand records over tens
// of thousands of positions for the tiles, where the update walk they
// replace made two reads per update — and every group reads each of its
// positions in one record only.
func TestTileGroupsCount(t *testing.T) {
	want := map[string]map[string][2]int{ // records, positions
		"LAP30": {
			"tiles P=4": {6402, 39283}, "tiles P=16": {23413, 87223},
			"columns": {16829, 209277}, "units g=4": {109620, 218992},
		},
		"BUS1138": {
			"tiles P=4": {4959, 8508}, "tiles P=16": {9129, 13631},
			"columns": {4870, 15373}, "units g=4": {8383, 16029},
		},
	}
	for name, byFamily := range want {
		m, _, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := m.Permute(order.MMD(m))
		if err != nil {
			t.Fatal(err)
		}
		sys := strategy.NewSys(symbolic.Analyze(pm), nil, nil)
		n := sys.F.N
		families := map[string][]traffic.Box{}
		for _, p := range []int{4, 16} {
			bounds := []int{0}
			for _, b := range sys.RectilinearCuts(p)[1:] {
				if b > bounds[len(bounds)-1] {
					bounds = append(bounds, b)
				}
			}
			var tiles []traffic.Box
			for c := 0; c+1 < len(bounds); c++ {
				for r := c; r+1 < len(bounds); r++ {
					tiles = append(tiles, traffic.Box{Col0: bounds[c], Col1: bounds[c+1], Row0: bounds[r], Row1: bounds[r+1]})
				}
			}
			families[fmt.Sprintf("tiles P=%d", p)] = tiles
		}
		for j := 0; j < n; j++ {
			families["columns"] = append(families["columns"], traffic.Box{Col0: j, Col1: j + 1, Row0: j, Row1: n})
		}
		for _, u := range sys.Partition(core.Options{Grain: 4}).Units {
			families["units g=4"] = append(families["units g=4"], traffic.Box{Col0: u.ColLo, Col1: u.ColHi + 1, Row0: u.RowLo, Row1: u.RowHi + 1})
		}
		for family, w := range byFamily {
			gs := traffic.NewGroups(sys.Ops, families[family])
			records, positions := traffic.GroupsSize(gs)
			t.Logf("%s %s: %d records over %d positions", name, family, records, positions)
			if records != w[0] || positions != w[1] {
				t.Errorf("%s %s: %d records over %d positions, want %d over %d", name, family, records, positions, w[0], w[1])
			}
			if g := traffic.GroupsRepeat(gs); g >= 0 {
				t.Errorf("%s %s: group %d reads a position in two records", name, family, g)
			}
		}
	}
}
