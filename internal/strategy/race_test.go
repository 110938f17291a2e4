package strategy

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/symbolic"
)

// TestSysConcurrentMappingShared pins the goroutine-safety of Sys — the
// per-option partition cache and the lazily built column views (work
// vector, contigtotal's fetch references) — under the service workload:
// many concurrent mapping, partition and evaluation calls sharing one
// analysis. Run with -race (the CI race job does), any unguarded map
// access here fails the build.
func TestSysConcurrentMappingShared(t *testing.T) {
	a := gen.Grid9(16, 16)
	pm, err := a.Permute(order.MMD(a))
	if err != nil {
		t.Fatal(err)
	}
	f := symbolic.Analyze(pm)
	sys := NewSys(f, nil, nil)

	optsets := []Options{
		{},
		{Part: core.Options{Grain: 8, MinClusterWidth: 4}},
		{Part: core.Options{Grain: 25, MinClusterWidth: 4}},
		{Part: core.Options{Grain: 8, MinClusterWidth: 4, RelaxZeros: 4}},
	}
	names := []string{"block", "wrap", "contiguous", "blockcyclic", "contigtotal", "subcube"}

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				opts := optsets[(g+i)%len(optsets)]
				name := names[(g+i)%len(names)]
				sc, err := Map(name, sys, 4, opts)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				// Evaluation paths exercise the partition cache again.
				Traffic(sys, opts, sc)
				FetchStats(sys, opts, sc)
				Tasks(sys, opts, sc)
				sys.Partition(opts.Part)
			}
		}(g)
	}
	wg.Wait()

	// The cache must have coalesced: one partition per distinct
	// normalized option set, shared by pointer across goroutines.
	seen := map[*core.Partition]bool{}
	for _, opts := range optsets {
		seen[sys.Partition(opts.Part)] = true
	}
	if len(seen) != len(optsets) {
		t.Fatalf("distinct partitions = %d, want %d", len(seen), len(optsets))
	}
	// So must the column views: one copy each, never rebuilt, and no
	// mapper writes to the shared work vector.
	if &sys.columnWork()[0] != &sys.columnWork()[0] || &sys.columnRefs()[0] != &sys.columnRefs()[0] {
		t.Fatal("column views rebuilt between calls")
	}
	if !slices.Equal(sys.columnWork(), model.ColumnWork(f, sys.ElemWork)) {
		t.Fatal("the shared column work vector was written to")
	}
}
