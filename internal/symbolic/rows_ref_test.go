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
// starts a row, follows a source whose successor in the row is not the
// next column, is not its elimination-tree parent or has a tail from the
// row down of another length, and starts at every column that is a
// multiple of 255.
func refRuns(f *Factor) int {
	ptr, cols, pos := refRows(f)
	runs := 0
	tail := func(e int32) int { return f.ColPtr[cols[e]+1] - int(pos[e]) }
	for r := 0; r < f.N; r++ {
		for e := ptr[r]; e < ptr[r+1]; e++ {
			if e == ptr[r] || cols[e]%255 == 0 || cols[e] != cols[e-1]+1 || f.Parent[cols[e-1]] != int(cols[e]) || tail(e-1) != tail(e) {
				runs++
			}
		}
	}
	return runs
}

// checkRuns holds f's row index to the oracle: runs that decode to the
// old columns and positions exactly, each run a range of consecutive
// columns, each the elimination-tree parent of the one before, every run
// maximal (chained fails at its end), the records as many as refRuns
// counts, and every array at its exact size.
func checkRuns(f *Factor) error {
	ptr, cols, pos := refRows(f)
	ri := f.Rows()
	runs := int(ri.RunPtr[f.N])
	if len(ri.RunPtr) != f.N+1 || ri.RunPtr[0] != 0 || runs != refRuns(f) ||
		len(ri.Last) != runs || len(ri.Tail) != runs || len(ri.RunLen) != runs ||
		cap(ri.Last) != runs || cap(ri.Tail) != runs || cap(ri.RunLen) != runs {
		return fmt.Errorf("runs: %d pointers, %d records (the oracle %d), %d lasts (cap %d), %d tails (cap %d), %d lengths (cap %d)",
			len(ri.RunPtr), runs, refRuns(f), len(ri.Last), cap(ri.Last), len(ri.Tail), cap(ri.Tail), len(ri.RunLen), cap(ri.RunLen))
	}
	var got []int32
	for r := 0; r < f.N; r++ {
		want := cols[ptr[r]:ptr[r+1]]
		if got = f.AppendRow(got[:0], r, false); !slices.Equal(got, want) {
			return fmt.Errorf("row %d: runs decode to columns %v, want %v", r, got, want)
		}
		if got = f.AppendRow(got[:0], r, true); !slices.Equal(got, pos[ptr[r]:ptr[r+1]]) {
			return fmt.Errorf("row %d: runs decode to positions %v, want %v", r, got, pos[ptr[r]:ptr[r+1]])
		}
		chained := func(c int32, tail int) bool {
			hi := f.ColPtr[c+1]
			return f.chained(hi-tail, hi, f.runStep(int(c)))
		}
		for x := ri.RunPtr[r]; x < ri.RunPtr[r+1]; x++ {
			m, last, tail := int32(ri.RunLen[x]), ri.Last[x], int(ri.Tail[x])
			if m == 0 {
				return fmt.Errorf("row %d: run %d is empty", r, x)
			}
			for c := last - m + 1; c < last; c++ {
				if f.Parent[c] != int(c+1) {
					return fmt.Errorf("row %d: run %d holds column %d after %d, not its parent", r, x, c+1, c)
				}
				if !chained(c, tail) {
					return fmt.Errorf("row %d: run %d: column %d is not chained to %d", r, x, c, c+1)
				}
			}
			if chained(last, tail) {
				return fmt.Errorf("row %d: run %d could extend past column %d", r, x, last)
			}
		}
	}
	return nil
}

// TestRowRunsMatchReference: over the suite in natural, MMD and
// postordered MMD order, each on its own structure and on a relaxed one,
// and over 200 random patterns, the runs decode to the oracle's positions
// and are maximal ranges of consecutive columns, each the parent of the
// one before, with equal tails (checkRuns).
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

// TestRowIndexBytes: the row index holds no record per entry. Built and
// kept, the index of Grid9(60,60) in MMD order and of every suite matrix
// retains no more than bare arrays of 9 bytes a run (Last, Tail, RunLen)
// and 4 a row (RunPtr) do, rounded up to the allocator's size classes
// alike, to within 1 KiB. A column per entry, 4 bytes more, fails it.
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
			return [][]byte{make([]byte, 4*runs), make([]byte, 4*runs), make([]byte, runs), make([]byte, 4*rows)}
		})
		if held > want+slack {
			t.Errorf("%s: the row index holds %d bytes for %d entries in %d runs and %d rows, %.2f an entry; arrays of 9 bytes a run and 4 a row hold %d (+%d)",
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
