package sparse_test

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
)

// TestDimensionPastInt32IsAnError: a dimension whose row indices int32
// cannot hold is an error of every constructor, returned before anything
// n-sized is allocated, never a panic or a wrapped index.
func TestDimensionPastInt32IsAnError(t *testing.T) {
	const n = math.MaxInt32 + 1
	const most = 1 << 16 // far below one byte per column
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err1 := sparse.FromTriplets(n, []int{0}, []int{0}, []float64{1})
	_, err2 := sparse.NewPattern(n, [][2]int{{1, 0}})
	_, err3 := (&sparse.Matrix{N: n}).Permute(nil)
	err4 := (&sparse.Matrix{N: n}).Validate()
	runtime.ReadMemStats(&after)
	// TotalAlloc, not HeapAlloc: an allocation already freed counts too.
	got := after.TotalAlloc - before.TotalAlloc
	for k, err := range []error{err1, err2, err3, err4} {
		if err == nil || !strings.Contains(err.Error(), "dimension 2147483648") {
			t.Fatalf("call %d: err = %v, want the dimension named", k, err)
		}
	}
	if got > most {
		t.Fatalf("rejecting n = 2^31 allocated %d bytes, want <= %d", got, most)
	}
}

// TestRowOutOfRangeIsAnError: a row index outside [0, n) is an error of
// the constructors and of Permute, whatever its magnitude.
func TestRowOutOfRangeIsAnError(t *testing.T) {
	for _, r := range []int{-1, 3, math.MaxInt32 + 1, math.MinInt} {
		if _, err := sparse.FromTriplets(3, []int{r}, []int{0}, nil); err == nil {
			t.Fatalf("FromTriplets accepted row %d", r)
		}
		if _, err := sparse.NewPattern(3, [][2]int{{r, 0}}); err == nil {
			t.Fatalf("NewPattern accepted row %d", r)
		}
	}
	for _, r := range []int32{-1, 3, math.MaxInt32} {
		m := &sparse.Matrix{N: 3, ColPtr: []int{0, 2, 3, 4}, RowInd: []int32{0, r, 1, 2}}
		if _, err := m.Permute([]int{2, 1, 0}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("Permute with row %d: err = %v", r, err)
		}
	}
}

// heldBy returns the heap bytes build's result keeps after a collection,
// the least of three builds: other goroutines allocate too.
func heldBy[T any](build func() T) uint64 {
	held := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		x := build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(x)
		held = min(held, after.HeapAlloc-before.HeapAlloc)
	}
	return held
}

// TestMatrixBytesPerEntry: a matrix holds its row indices at four bytes
// each. Built and kept, gen.Grid9(60,60) and every suite matrix retain no
// more than three bare arrays of 4 and 8 bytes per stored entry (indices,
// values) and 8 per column pointer do, rounded up to the allocator's size
// classes alike, to within 1 KiB; 8-byte row indices, 16 bytes an entry,
// fail it.
func TestMatrixBytesPerEntry(t *testing.T) {
	// What else the test binary keeps between two reads: a few small
	// objects, far below the 4 bytes an entry that 8-byte row indices
	// add (8 KB on DWT512, the smallest).
	const slack = 1 << 10
	builds := map[string]func() *sparse.Matrix{"Grid9(60,60)": func() *sparse.Matrix { return gen.Grid9(60, 60) }}
	for _, tm := range gen.Suite() {
		builds[tm.Name] = tm.Build
	}
	for name, build := range builds {
		m := build()
		held := heldBy(build)
		want := heldBy(func() [][]byte {
			return [][]byte{make([]byte, 4*m.NNZ()), make([]byte, 8*m.NNZ()), make([]byte, 8*(m.N+1))}
		})
		if held > want+slack {
			t.Errorf("%s: holds %d bytes for %d entries and %d columns, %.1f an entry; arrays of 12 bytes an entry and 8 a column hold %d (+%d)",
				name, held, m.NNZ(), m.N, float64(held-uint64(8*(m.N+1)))/float64(m.NNZ()), want, slack)
		}
	}
}
