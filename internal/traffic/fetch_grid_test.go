package traffic_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/part2d"
	"repro/internal/strategy"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

func suiteSys(t *testing.T, tm gen.TestMatrix) *strategy.Sys {
	t.Helper()
	m := tm.Build()
	pm, err := m.Permute(order.MMD(m))
	if err != nil {
		t.Fatal(err)
	}
	return strategy.NewSys(symbolic.Analyze(pm), nil, nil)
}

// TestFetchAttributionStrategyGrid: every registered strategy, through
// strategy.FetchStats (the closed form for the column-granular ones, the
// read-map replay for the block-granular rest), equals the reference walk
// at one-word, two-word and past-n processor counts under the three option
// sets the studies use; the column schedules also through the run kernel.
func TestFetchAttributionStrategyGrid(t *testing.T) {
	optSets := []strategy.Options{
		{},
		{Part: core.Options{Grain: 25}},
		{Part: core.Options{RelaxZeros: 0.1}},
	}
	for _, tm := range gen.Suite() {
		sys := suiteSys(t, tm)
		n := sys.F.N
		procs := []int{1, 2, 4, 16, 64, 65, 100, n + 7}
		if testing.Short() || raceBuild {
			procs = []int{2, 65}
		}
		colOf := sys.F.ColIndex()
		for _, name := range strategy.Names() {
			for _, p := range procs {
				for oi, opts := range optSets {
					cell := fmt.Sprintf("%s/%s/P=%d/opts#%d", tm.Name, name, p, oi)
					sc, err := strategy.Map(name, sys, p, opts)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					got := strategy.FetchStats(sys, opts, sc)
					if sc.Part == nil {
						traffic.CheckAttribution(t, cell, sc, colOf, got)
						traffic.CheckAttribution(t, cell+"/run kernel", sc, colOf,
							traffic.FetchStatsTasks(sc, n, colOf))
						break // a column schedule does not read opts.Part
					}
					// A relaxed partition pads the factor, which the
					// schedule carries and the walk reads.
					traffic.CheckAttribution(t, cell, sc, sc.Part.ElemUnit, got)
				}
			}
		}
	}
}

// TestFetchAttribution2DGrid: every 2D mapper's merged tile-segment
// attribution (part2d.FetchStats, the run kernel over elemTask) equals the
// reference walk.
func TestFetchAttribution2DGrid(t *testing.T) {
	for _, tm := range gen.Suite() {
		sys := suiteSys(t, tm)
		for _, name := range part2d.Names2D() {
			for _, p := range []int{4, 16} {
				cell := fmt.Sprintf("%s/%s/P=%d", tm.Name, name, p)
				s2, err := part2d.Map2D(name, sys, p, strategy.Options{})
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				tasks, elemTask := part2d.Tasks(sys.Ops, sys.ElemWork, s2)
				traffic.CheckAttribution(t, cell, s2.Schedule(), elemTask,
					part2d.FetchStats(sys.Ops, s2, len(tasks), elemTask))
			}
		}
	}
}
