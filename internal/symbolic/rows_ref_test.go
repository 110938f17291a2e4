package symbolic

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/sparse"
)

// refRows is the row index as it was built before it held runs: per row,
// the columns k < r with L[r,k] != 0, increasing, and beside each one its
// factor position. It is the oracle the runs must decode to.
func refRows(f *Factor) (ptr, cols, pos []int32) {
	n := f.N
	ptr = make([]int32, n+1)
	for j := 0; j < n; j++ {
		for _, i := range f.Col(j)[1:] {
			ptr[i+1]++
		}
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	half := f.NNZ() - n
	cols, pos = make([]int32, half), make([]int32, half)
	at := slices.Clone(ptr[:n])
	for j := 0; j < n; j++ {
		base := f.ColPtr[j]
		for t, i := range f.Col(j)[1:] {
			cols[at[i]], pos[at[i]] = int32(j), int32(base+1+t)
			at[i]++
		}
	}
	return ptr, cols, pos
}

// refRuns counts the run records of f from the oracle: a new record
// starts a row, follows a source whose elimination-tree parent is another
// column or whose tail from the row down has another length, and follows
// a record of 255 entries.
func refRuns(f *Factor) int {
	ptr, cols, pos := refRows(f)
	runs := 0
	for r := 0; r < f.N; r++ {
		m := 0
		for e := ptr[r]; e < ptr[r+1]; e++ {
			tail := func(e int32) int { return f.ColPtr[cols[e]+1] - int(pos[e]) }
			if e > ptr[r] && m < 255 && f.Parent[cols[e-1]] == int(cols[e]) && tail(e-1) == tail(e) {
				m++
			} else {
				runs, m = runs+1, 1
			}
		}
	}
	return runs
}

// checkRuns holds f's row index to the oracle: the same pointers and
// columns, runs that decode to the old positions exactly, each run a
// parent chain of one tail length whose entries sum to its row's length,
// every run maximal, and every array at its exact size.
func checkRuns(f *Factor) error {
	ptr, cols, pos := refRows(f)
	ri := f.Rows()
	if !slices.Equal(ri.Ptr, ptr) || !slices.Equal(ri.Cols, cols) {
		return fmt.Errorf("pointers or columns depart from the oracle")
	}
	if len(ri.RunPtr) != f.N+1 || len(ri.Tail) != int(ri.RunPtr[f.N]) || len(ri.RunLen) != len(ri.Tail) ||
		cap(ri.Tail) != len(ri.Tail) || cap(ri.RunLen) != len(ri.RunLen) {
		return fmt.Errorf("runs: %d pointers, %d tails (cap %d), %d lengths (cap %d)",
			len(ri.RunPtr), len(ri.Tail), cap(ri.Tail), len(ri.RunLen), cap(ri.RunLen))
	}
	var got []int32
	for r := 0; r < f.N; r++ {
		if got = f.AppendRowPos(got[:0], r); !slices.Equal(got, pos[ptr[r]:ptr[r+1]]) {
			return fmt.Errorf("row %d: runs decode to positions %v, want %v", r, got, pos[ptr[r]:ptr[r+1]])
		}
		e, sum := ptr[r], int32(0)
		for x := ri.RunPtr[r]; x < ri.RunPtr[r+1]; x++ {
			m := int32(ri.RunLen[x])
			if m == 0 {
				return fmt.Errorf("row %d: run %d is empty", r, x)
			}
			for y := e + 1; y < e+m; y++ {
				if f.Parent[cols[y-1]] != int(cols[y]) {
					return fmt.Errorf("row %d: run %d holds column %d after %d, not its parent", r, x, cols[y], cols[y-1])
				}
			}
			if x > ri.RunPtr[r] && ri.RunLen[x-1] < 255 && f.Parent[cols[e-1]] == int(cols[e]) && ri.Tail[x-1] == ri.Tail[x] {
				return fmt.Errorf("row %d: run %d could extend run %d", r, x, x-1)
			}
			e, sum = e+m, sum+m
		}
		if sum != ptr[r+1]-ptr[r] {
			return fmt.Errorf("row %d: runs hold %d entries, the row %d", r, sum, ptr[r+1]-ptr[r])
		}
	}
	return nil
}

// TestRowRunsMatchReference: over the suite in natural, MMD and
// postordered MMD order, each on its own structure and on a relaxed one,
// and over 200 random patterns, the runs decode to the oracle's positions
// and are maximal parent chains of equal tails (checkRuns).
func TestRowRunsMatchReference(t *testing.T) {
	facs := map[string]*Factor{}
	for _, tm := range gen.Suite() {
		m := tm.Build()
		mmd := order.MMD(m)
		post, err := PostOrderPerm(m, mmd)
		if err != nil {
			t.Fatal(err)
		}
		for name, perm := range map[string][]int{"natural": order.Natural(m.N), "mmd": mmd, "postmmd": post} {
			pm, err := m.Permute(perm)
			if err != nil {
				t.Fatal(err)
			}
			f := Analyze(pm)
			relaxed, _ := Relax(f, 0.3)
			facs[tm.Name+"/"+name], facs[tm.Name+"/"+name+"/relaxed"] = f, relaxed
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		facs[fmt.Sprintf("random/%d", seed)] = Analyze(gen.Random(1+int(seed%60), float64(seed%7)/2, seed))
	}
	for name, f := range facs {
		if err := checkRuns(f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestRowIndexBytes: the row index holds no position per entry. Built and
// kept, the index of Grid9(60,60) in MMD order and of every suite matrix
// retains no more than bare arrays of 4 bytes an off-diagonal entry
// (Cols), 5 a run (Tail, RunLen) and 8 a row (Ptr, RunPtr) do, rounded up
// to the allocator's size classes alike, to within 1 KiB. A position per
// entry, 4 bytes more, fails it.
func TestRowIndexBytes(t *testing.T) {
	const slack = 1 << 10
	ms := map[string]*sparse.Matrix{"Grid9(60,60)": gen.Grid9(60, 60)}
	for _, tm := range gen.Suite() {
		ms[tm.Name] = tm.Build()
	}
	for name, m := range ms {
		pm, err := m.Permute(order.MMD(m))
		if err != nil {
			t.Fatal(err)
		}
		f := Analyze(pm)
		half, runs, rows := f.NNZ()-f.N, refRuns(f), f.N+1
		held := heldBy(func() *RowIndex {
			return (&Factor{N: f.N, ColPtr: f.ColPtr, RowInd: f.RowInd, Parent: f.Parent}).Rows()
		})
		want := heldBy(func() [][]byte {
			return [][]byte{make([]byte, 4*half), make([]byte, 4*runs), make([]byte, runs), make([]byte, 4*rows), make([]byte, 4*rows)}
		})
		if held > want+slack {
			t.Errorf("%s: the row index holds %d bytes for %d entries in %d runs and %d rows, %.1f an entry; arrays of 4 bytes an entry, 5 a run and 8 a row hold %d (+%d)",
				name, held, half, runs, f.N, float64(held)/float64(half), want, slack)
		}
	}
}

// heldBy is what build's result keeps on the heap, the least of three
// tries.
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
