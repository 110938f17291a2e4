package traffic_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/strategy"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

// TestTileGroupsCount pins what the rect2d descent's groups cost against
// what the update walk they replace made: on LAP30 and BUS1138, the tiles
// of the rectilinear cut at P = 4 and 16 hold a few thousand records over
// tens of thousands of positions, where the walk made two reads per update
// and one per scale — and the records stand for exactly those reads.
func TestTileGroupsCount(t *testing.T) {
	want := map[string]map[int][2]int{ // records, positions
		"LAP30":   {4: {6402, 39283}, 16: {23413, 87223}},
		"BUS1138": {4: {4959, 8508}, 16: {9129, 13631}},
	}
	for name, byP := range want {
		m, _, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := m.Permute(order.MMD(m))
		if err != nil {
			t.Fatal(err)
		}
		sys := strategy.NewSys(symbolic.Analyze(pm), nil, nil)
		updates := model.CountUpdates(sys.F)
		for p, w := range byP {
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
			records, positions, reads := traffic.GroupsSize(traffic.NewGroups(sys.Ops, tiles))
			t.Logf("%s P=%d: %d records over %d positions; %d updates, %d reads", name, p, records, positions, updates, reads)
			if want := 2*int(updates) + sys.F.NNZ(); reads != want {
				t.Errorf("%s P=%d: the records stand for %d reads, the walk made %d", name, p, reads, want)
			}
			if records != w[0] || positions != w[1] {
				t.Errorf("%s P=%d: %d records over %d positions, want %d over %d", name, p, records, positions, w[0], w[1])
			}
		}
	}
}
