package model_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// wideWork is the work model at eight bytes an element, counted one pair
// update at a time: 2 units an update, 1 for the diagonal.
func wideWork(o *model.Ops) []int64 {
	w := make([]int64, o.F.NNZ())
	o.ForEachUpdate(func(u model.Update) { w[u.Tgt] += 2 })
	for q := range w {
		w[q]++
	}
	return w
}

// TestWorkMatchesWideOracle: Work's four-byte values and ElementWork's
// widening of them equal the eight-byte per-update count element by
// element, over the suite in natural, MMD and postordered MMD order, each
// on its own structure and on core.NewPartition's padded factor at
// RelaxZeros 0.3, and over 200 random patterns.
func TestWorkMatchesWideOracle(t *testing.T) {
	facs := map[string]*symbolic.Factor{}
	for _, tm := range gen.Suite() {
		m := tm.Build()
		mmd := order.MMD(m)
		post, err := symbolic.PostOrderPerm(m, mmd)
		if err != nil {
			t.Fatal(err)
		}
		for name, perm := range map[string][]int{"natural": order.Natural(m.N), "mmd": mmd, "postmmd": post} {
			pm, err := m.Permute(perm)
			if err != nil {
				t.Fatal(err)
			}
			f := symbolic.Analyze(pm)
			relaxed := core.NewPartition(f, core.Options{RelaxZeros: 0.3}).F
			if relaxed.NNZ() == f.NNZ() {
				t.Fatalf("%s/%s: relaxation padded nothing", tm.Name, name)
			}
			facs[tm.Name+"/"+name], facs[tm.Name+"/"+name+"/relaxed"] = f, relaxed
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		facs[fmt.Sprintf("random/%d", seed)] = symbolic.Analyze(gen.Random(1+int(seed%60), float64(seed%7)/2, seed))
	}
	for name, f := range facs {
		o := model.NewOps(f)
		want := wideWork(o)
		got, wide := model.Work(o), model.ElementWork(o)
		if len(got) != len(want) || len(wide) != len(want) {
			t.Fatalf("%s: %d and %d work values for %d elements", name, len(got), len(wide), len(want))
		}
		for q, w := range want {
			if int64(got[q]) != w || wide[q] != w {
				t.Fatalf("%s: element %d: Work %d, ElementWork %d, oracle %d", name, q, got[q], wide[q], w)
			}
		}
		if model.TotalWork(got) != model.TotalWork(want) {
			t.Fatalf("%s: totals %d and %d", name, model.TotalWork(got), model.TotalWork(want))
		}
	}
}

var sink [][]uint32

// allocated returns the objects and bytes fn allocates, the least of
// three tries.
func allocated(fn func()) (objects, bytes uint64) {
	objects, bytes = math.MaxUint64, math.MaxUint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

// TestWorkAllocatesOneArray: Work allocates the one array of 4·nnz(L)
// bytes it returns, besides updateCounts' column scatter of 4·n bytes —
// the counts become the work in place, so no second element array grows
// back.
func TestWorkAllocatesOneArray(t *testing.T) {
	for name, m := range map[string]*sparse.Matrix{"LAP30": gen.Lap30(), "Grid9(60,60)": gen.Grid9(60, 60)} {
		f := mmdFactor(t, m)
		o := model.NewOps(f)
		objects, bytes := allocated(func() { sink = append(sink[:0], model.Work(o)) })
		wantObjects, wantBytes := allocated(func() {
			sink = append(sink[:0], make([]uint32, f.NNZ()), make([]uint32, f.N))
		})
		if objects != wantObjects || bytes != wantBytes {
			t.Errorf("%s: Work allocates %d objects of %d bytes in all; one array of 4·nnz(L) = %d bytes and the scatter of 4·n = %d are %d objects of %d",
				name, objects, bytes, 4*f.NNZ(), 4*f.N, wantObjects, wantBytes)
		}
	}
	sink = nil
}

func mmdFactor(t *testing.T, m *sparse.Matrix) *symbolic.Factor {
	pm, err := m.Permute(order.MMD(m))
	if err != nil {
		t.Fatal(err)
	}
	return symbolic.Analyze(pm)
}
