package model

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/symbolic"
)

// refUpdateCounts is updateCounts as it was before the same-tail passes:
// one increment per pair update, run by run. It is the oracle the passes
// are pinned to.
func refUpdateCounts(o *Ops) []uint32 {
	counts := make([]uint32, o.F.NNZ())
	rowInd := o.F.RowInd
	o.ForEachRun(func(r Run) {
		for _, i := range rowInd[r.Lo:r.Hi] {
			counts[r.Tgt[i]]++
		}
	})
	return counts
}

// countUpdates returns the total number of pair-update operations, sum
// over columns k of c_k*(c_k+1)/2 where c_k is the number of sub-diagonal
// nonzeros of column k. Used to cross-check enumeration.
func countUpdates(f *symbolic.Factor) int64 {
	var u int64
	for k := 0; k < f.N; k++ {
		c := int64(f.ColLen(k) - 1)
		u += c * (c + 1) / 2
	}
	return u
}

// TestUpdateCountsMatchesReference: the passes count every element's
// updates exactly as the run enumeration does, on the suite under three
// orderings, on relaxed (padded) factors and on random patterns, and sum to
// countUpdates.
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
		got := o.updateCounts()
		if want := refUpdateCounts(o); !slices.Equal(got, want) {
			t.Fatalf("%s: update counts differ from the run enumeration", names[x])
		}
		var sum int64
		for _, c := range got {
			sum += int64(c)
		}
		if sum != countUpdates(f) {
			t.Fatalf("%s: counts sum to %d, countUpdates %d", names[x], sum, countUpdates(f))
		}
	}
}
