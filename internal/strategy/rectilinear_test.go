package strategy

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sparse"
)

// tileMax evaluates a symmetric cut structure: the maximum work over the
// lower-triangle tiles induced by sharing bounds between rows and
// columns — the objective RectilinearCuts minimizes.
func tileMax(ops *model.Ops, elemWork []int64, bounds []int) int64 {
	f := ops.F
	n := f.N
	iv := make([]int32, n)
	for k := 0; k+1 < len(bounds); k++ {
		for j := bounds[k]; j < bounds[k+1]; j++ {
			iv[j] = int32(k)
		}
	}
	p := len(bounds) - 1
	tiles := make([]int64, p*p)
	for x := 0; x < n; x++ {
		tiles[int(iv[x])*p+int(iv[x])] += elemWork[f.ColPtr[x]]
		pos := ops.RowPositions(x)
		for i, k := range ops.RowCols(x) {
			tiles[int(iv[x])*p+int(iv[k])] += elemWork[pos[i]]
		}
	}
	var m int64
	for _, v := range tiles {
		if v > m {
			m = v
		}
	}
	return m
}

// TestRectilinearCutsBruteForce compares the probe-refined cuts against
// exhaustive enumeration of every symmetric cut structure on small
// matrices (n <= 12): the probe may not beat the optimum (sanity), and
// on this fixed instance set it attains it exactly, which the test pins.
func TestRectilinearCutsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	matrices := []*sparse.Matrix{
		gen.Grid5(3, 3),
		gen.Grid5(3, 4),
		gen.Grid9(3, 3),
		gen.FEGrid5(2),
	}
	for trial := 0; trial < 20; trial++ {
		matrices = append(matrices, randomPattern(t, rng, 4+rng.Intn(9)))
	}
	for mi, m := range matrices {
		sys := newTestSys(t, m)
		n := sys.F.N
		for _, p := range []int{2, 3, 4} {
			bounds := RectilinearCuts(sys.Ops, sys.ElemWork, p)
			if len(bounds) != p+1 || bounds[0] != 0 || bounds[p] != n {
				t.Fatalf("matrix %d P=%d: malformed bounds %v", mi, p, bounds)
			}
			for k := 0; k < p; k++ {
				if bounds[k] > bounds[k+1] {
					t.Fatalf("matrix %d P=%d: non-monotone bounds %v", mi, p, bounds)
				}
			}
			got := tileMax(sys.Ops, sys.ElemWork, bounds)
			best := int64(-1)
			forEachSplit(n, p, func(b []int) {
				if tm := tileMax(sys.Ops, sys.ElemWork, b); best < 0 || tm < best {
					best = tm
				}
			})
			if got < best {
				t.Fatalf("matrix %d P=%d: probe tile max %d beats exhaustive optimum %d",
					mi, p, got, best)
			}
			if got != best {
				t.Errorf("matrix %d P=%d: probe tile max %d, exhaustive optimum %d",
					mi, p, got, best)
			}
		}
	}
}

// TestRectilinearLocalityLAP30: sharing the diagonal block structure
// keeps communication contiguous-like, far below wrap's scatter — the
// property the strategy exists for. Also pins that the symmetric cuts
// never leave the work balance unboundedly worse than wrap's near-
// perfect one (imbalance stays finite and the schedule well formed via
// the shared invariant tests).
func TestRectilinearLocalityLAP30(t *testing.T) {
	sys := newTestSys(t, gen.Lap30())
	for _, p := range []int{16, 32} {
		rect, err := Map("rectilinear", sys, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wrap, err := Map("wrap", sys, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rt, wt := Traffic(sys, Options{}, rect).Total, Traffic(sys, Options{}, wrap).Total
		if rt >= wt {
			t.Errorf("P=%d: rectilinear traffic %d >= wrap %d, want the symmetric blocks to cut it",
				p, rt, wt)
		}
	}
}

// TestSplitHelperContract locks the processor-count contract of the
// exported split helpers: all of them panic on p < 1 (sched.MustProcs), while
// the registered mappers return an error (sched.CheckProcs) — tested for the
// whole registry by TestInvalidProcs.
func TestSplitHelperContract(t *testing.T) {
	sys := newTestSys(t, gen.Grid5(4, 4))
	work := sys.ColumnWork()
	mustPanicProcs := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s with p=0 did not panic", name)
			}
		}()
		fn()
	}
	mustPanicProcs("ContiguousSplit", func() { ContiguousSplit(work, 0) })
	mustPanicProcs("OptimalBottleneck", func() { OptimalBottleneck(work, 0) })
	mustPanicProcs("ContiguousSplitTotal", func() { ContiguousSplitTotal(work, nil, 0, 1, 0) })
	mustPanicProcs("RectilinearCuts", func() { RectilinearCuts(sys.Ops, sys.ElemWork, 0) })
	mustPanicProcs("SubcubeOwners", func() { SubcubeOwners(sys.F.Parent, work, 0) })
}
