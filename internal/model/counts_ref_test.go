package model

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/symbolic"
)

// refUpdateCounts is UpdateCounts as it was before the same-tail passes:
// one increment per pair update, run by run. It is the oracle the passes
// are pinned to.
func refUpdateCounts(o *Ops) []int32 {
	counts := make([]int32, o.F.NNZ())
	rowInd := o.F.RowInd
	o.ForEachRun(func(r Run) {
		for _, i := range rowInd[r.Lo:r.Hi] {
			counts[r.Tgt[i]]++
		}
	})
	return counts
}

// TestUpdateCountsMatchesReference: the passes count every element's
// updates exactly as the run enumeration does, on the suite under three
// orderings, on relaxed (padded) factors and on random patterns, and sum to
// CountUpdates.
func TestUpdateCountsMatchesReference(t *testing.T) {
	var facs []*symbolic.Factor
	var names []string
	for _, tm := range gen.Suite() {
		m := tm.Build()
		for _, o := range []struct {
			name string
			perm []int
		}{{"mmd", order.MMD(m)}, {"nd", order.NestedDissection(m, 0)}, {"natural", nil}} {
			pm := m
			if o.perm != nil {
				var err error
				if pm, err = m.Permute(o.perm); err != nil {
					t.Fatal(err)
				}
			}
			f := symbolic.Analyze(pm)
			relaxed, _ := symbolic.Relax(f, 0.3)
			facs = append(facs, f, relaxed)
			names = append(names, tm.Name+"/"+o.name, tm.Name+"/"+o.name+"/relaxed")
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		facs = append(facs, analyzed(seed))
		names = append(names, fmt.Sprintf("random/%d", seed))
	}
	for x, f := range facs {
		o := NewOps(f)
		got := o.UpdateCounts()
		if want := refUpdateCounts(o); !slices.Equal(got, want) {
			t.Fatalf("%s: update counts differ from the run enumeration", names[x])
		}
		var sum int64
		for _, c := range got {
			sum += int64(c)
		}
		if sum != CountUpdates(f) {
			t.Fatalf("%s: counts sum to %d, CountUpdates %d", names[x], sum, CountUpdates(f))
		}
	}
}
