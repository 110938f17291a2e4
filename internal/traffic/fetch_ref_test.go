package traffic

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/symbolic"
)

// refFetchPerTask is the fetch attribution as it was before the run kernel
// and the closed form: one closure call per source access of every
// element-level update, a map for the (source processor, task) pairs. It
// is the reference the code in fetch.go is pinned to, whole TaskComm.
func refFetchPerTask(ops *model.Ops, s *sched.Schedule, ntasks int, taskOf func(tgt int32) int32) *TaskComm {
	nnz := ops.F.NNZ()
	tc := &TaskComm{Vol: make([]int64, ntasks), Msgs: make([]int64, ntasks)}
	fetched := NewFetchDedup(s.P, nnz)
	msgSeen := make(map[int64]struct{}) // distinct (source processor, task) pairs
	access := func(elem, tgt int32) {
		proc := s.ElemProc[tgt]
		owner := s.ElemProc[elem]
		if owner == proc || !fetched.FirstFetch(elem, proc) {
			return
		}
		task := taskOf(tgt)
		tc.Vol[task]++
		mk := int64(owner)<<32 | int64(task)
		if _, ok := msgSeen[mk]; !ok {
			msgSeen[mk] = struct{}{}
			tc.Msgs[task]++
		}
	}
	forEachUpdate(ops, func(u update) {
		access(u.SrcI, u.Tgt)
		access(u.SrcJ, u.Tgt)
	})
	forEachScale(ops, func(tgt, diag int32) {
		access(diag, tgt)
	})
	return tc
}

// checkAttribution holds got to the reference walk over taskOf, and its
// volumes to Simulate's total.
func checkAttribution(t testing.TB, name string, ops *model.Ops, s *sched.Schedule, taskOf []int32, got *TaskComm) {
	t.Helper()
	want := refFetchPerTask(ops, s, len(got.Vol), func(tgt int32) int32 { return taskOf[tgt] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: attribution differs from the reference walk (vol %d msgs %d, want %d / %d)",
			name, got.TotalVol(), got.TotalMsgs(), want.TotalVol(), want.TotalMsgs())
	}
	if sim := Simulate(ops, s).Total; got.TotalVol() != sim {
		t.Fatalf("%s: volumes sum to %d, Simulate total %d", name, got.TotalVol(), sim)
	}
}

// checkColumns holds both column paths to the reference: FetchStatsColumns
// (the closed form when uniform is true, the fall-through otherwise) and
// the run kernel over the column index.
func checkColumns(t testing.TB, name string, ops *model.Ops, s *sched.Schedule, uniform bool) {
	t.Helper()
	if _, ok := columnOwners(ops.F, s); ok != uniform {
		t.Fatalf("%s: column-uniform = %v, want %v", name, ok, uniform)
	}
	colOf := ops.F.ColIndex()
	checkAttribution(t, name+"/columns", ops, s, colOf, FetchStatsColumns(ops, s))
	checkAttribution(t, name+"/run kernel", ops, s, colOf, FetchStatsTasks(ops, s, ops.F.N, colOf))
}

// TestFetchColumnsFallThrough: one element of one column re-owned makes the
// schedule no longer column-uniform; FetchStatsColumns must notice, take
// the element-level walk and still match the reference.
func TestFetchColumnsFallThrough(t *testing.T) {
	for _, tm := range gen.Suite() {
		ops, _, ew := pipeline(tm.Build(), 4, 4)
		f := ops.F
		for _, p := range []int{2, 16, 65} {
			s := sched.WrapMap(f, ew, p)
			checkColumns(t, tm.Name+"/wrap", ops, s, true)
			// The last element of the longest column moves to the next processor.
			long := 0
			for j := 1; j < f.N; j++ {
				if f.ColLen(j) > f.ColLen(long) {
					long = j
				}
			}
			q := f.ColPtr[long+1] - 1
			s.ElemProc[q] = (s.ElemProc[q] + 1) % int32(p)
			checkColumns(t, tm.Name+"/one element re-owned", ops, s, false)
		}
	}
}

// TestFetchColumnsOwnerOutOfRange: an owner that is no processor of the
// schedule is not something the closed form may index a stamp with; the
// uniformity check rejects it before any stamp is read.
func TestFetchColumnsOwnerOutOfRange(t *testing.T) {
	ops, _, ew := pipeline(gen.Grid9(4, 4), 4, 4)
	s := sched.WrapMap(ops.F, ew, 4)
	for q := ops.F.ColPtr[3]; q < ops.F.ColPtr[4]; q++ {
		s.ElemProc[q] = 4
	}
	if _, ok := columnOwners(ops.F, s); ok {
		t.Fatal("a column owned by processor P passed the uniformity check")
	}
}

func TestFetchStatsPanics(t *testing.T) {
	ops, part, ew := pipeline(gen.Grid9(5, 5), 4, 4)
	s := sched.WrapMap(ops.F, ew, 3)
	short := &sched.Schedule{P: 3, ElemProc: s.ElemProc[:len(s.ElemProc)-1]}
	noProcs := &sched.Schedule{ElemProc: s.ElemProc}
	colOf := ops.F.ColIndex()
	for name, fn := range map[string]func(){
		"columns, short schedule": func() { FetchStatsColumns(ops, short) },
		"columns, P = 0":          func() { FetchStatsColumns(ops, noProcs) },
		"tasks, short schedule":   func() { FetchStatsTasks(ops, short, ops.F.N, colOf) },
		"tasks, P = 0":            func() { FetchStatsTasks(ops, noProcs, ops.F.N, colOf) },
		"tasks, short task map":   func() { FetchStatsTasks(ops, s, ops.F.N, colOf[1:]) },
		"units, short partition":  func() { FetchStats(&core.Partition{Units: part.Units, ElemUnit: part.ElemUnit[1:]}, ops, s) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestFetchStatsAllocs: the attribution allocates a fixed set of objects —
// the result, the masks, the stamps, the enumerator's scatter — whatever
// the schedule fetches: no map, nothing per fetch. The block replay's read
// map is the partition's, built by the first call and not again.
func TestFetchStatsAllocs(t *testing.T) {
	small, smallPart, smallWork := pipeline(gen.Grid9(6, 6), 4, 4)
	large, part, largeWork := pipeline(gen.Lap30(), 4, 4)
	allocs := func(fn func()) float64 { return testing.AllocsPerRun(5, fn) }
	for _, p := range []int{4, 100} {
		ws, wl := sched.WrapMap(small.F, smallWork, p), sched.WrapMap(large.F, largeWork, p)
		bs, bl := sched.BlockMap(smallPart, p), sched.BlockMap(part, p)
		if fl := Simulate(large, wl).Total; fl < 100*Simulate(small, ws).Total/10 {
			t.Fatalf("P=%d: LAP30 fetches %d elements, not ten times the small grid's; the pin compares nothing", p, fl)
		}
		cols := allocs(func() { FetchStatsColumns(large, wl) })
		if base := allocs(func() { FetchStatsColumns(small, ws) }); cols != base || cols > 8 {
			t.Errorf("P=%d: FetchStatsColumns allocates %.0f objects on LAP30, %.0f on a 6x6 grid; want equal and at most 8", p, cols, base)
		}
		blocks := allocs(func() { FetchStats(part, large, bl) })
		if base := allocs(func() { FetchStats(smallPart, small, bs) }); blocks != base || blocks > 8 {
			t.Errorf("P=%d: FetchStats allocates %.0f objects on LAP30, %.0f on a 6x6 grid; want equal and at most 8", p, blocks, base)
		}
		run := allocs(func() { FetchStatsTasks(large, bl, len(part.Units), part.ElemUnit) })
		colOf := small.F.ColIndex()
		if base := allocs(func() { FetchStatsTasks(small, ws, small.F.N, colOf) }); run != base || run > 8 {
			t.Errorf("P=%d: the run kernel allocates %.0f objects on LAP30's block schedule, %.0f on a 6x6 grid; want equal and at most 8", p, run, base)
		}
	}
}

// BenchmarkFetchAttribution times, per suite matrix at P = 16, the walk
// this file keeps as the reference against what replaced it: the closed
// form and the run kernel on a wrap schedule, the run kernel and the
// read-map replay (its map built before the timing) on the block schedule.
// It regenerates the fetch-attribution rows of ROADMAP.md and
// EXPERIMENTS.md.
func BenchmarkFetchAttribution(b *testing.B) {
	for _, tm := range gen.Suite() {
		ops, part, ew := pipeline(tm.Build(), 4, 4)
		colOf := ops.F.ColIndex()
		wrap, block := sched.WrapMap(ops.F, ew, 16), sched.BlockMap(part, 16)
		part.ReadMap()
		for _, bc := range []struct {
			name string
			fn   func()
		}{
			{"columns/reference", func() { refFetchPerTask(ops, wrap, ops.F.N, func(q int32) int32 { return colOf[q] }) }},
			{"columns/closed", func() { FetchStatsColumns(ops, wrap) }},
			{"columns/runs", func() { FetchStatsTasks(ops, wrap, ops.F.N, colOf) }},
			{"blocks/reference", func() {
				refFetchPerTask(ops, block, len(part.Units), func(q int32) int32 { return part.ElemUnit[q] })
			}},
			{"blocks/runs", func() { FetchStatsTasks(ops, block, len(part.Units), part.ElemUnit) }},
			{"blocks/replay", func() { FetchStats(part, ops, block) }},
		} {
			b.Run(tm.Name+"/"+bc.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bc.fn()
				}
			})
		}
	}
}

// fuzzOwners decodes an owner for every factor element from the script:
// one draw per column when the first byte is even (column-uniform), one
// per element otherwise. The script is read cyclically, so any length
// gives a full assignment.
func fuzzOwners(f *symbolic.Factor, p int, script []byte) []int32 {
	owners := make([]int32, f.NNZ())
	if len(script) == 0 {
		return owners
	}
	uniform := script[0]%2 == 0
	at := func(i int) int32 { return int32(int(script[i%len(script)]) % p) }
	for j := 0; j < f.N; j++ {
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			if uniform {
				owners[q] = at(1 + j)
			} else {
				owners[q] = at(1 + q)
			}
		}
	}
	return owners
}

// checkBlocks holds FetchStats to the reference walk over the unit map on
// a block schedule, having checked that it takes the path expected of it:
// the read-map replay when uniform, the walk otherwise.
func checkBlocks(t testing.TB, name string, part *core.Partition, ops *model.Ops, s *sched.Schedule, uniform bool) {
	t.Helper()
	if got := unitUniform(part, s); got != uniform {
		t.Fatalf("%s: unit-uniform = %v, want %v", name, got, uniform)
	}
	checkAttribution(t, name, ops, s, part.ElemUnit, FetchStats(part, ops, s))
}

// fuzzBlocks partitions the factor under options drawn from the script and
// holds the block attribution to the reference walk on the schedules of
// both Section 3.4 allocators, on a unit-owner shuffle and, with one
// element moved off its unit's processor, on a schedule the replay must
// refuse.
func fuzzBlocks(t *testing.T, fac *symbolic.Factor, p int, script []byte) {
	at := func(i int) int {
		if len(script) == 0 {
			return i
		}
		return int(script[i%len(script)])
	}
	part := core.NewPartition(fac, core.Options{
		Grain:           1 + at(0)%30,
		MinClusterWidth: 2 + at(1)%4,
		RelaxZeros:      float64(at(2)%4) * 0.15,
	})
	ops := model.NewOps(part.F)
	shuffle := &sched.Schedule{P: p, UnitProc: make([]int32, len(part.Units)), ElemProc: make([]int32, part.F.NNZ())}
	for u := range shuffle.UnitProc {
		shuffle.UnitProc[u] = int32(at(3+u) % p)
	}
	for q, u := range part.ElemUnit {
		shuffle.ElemProc[q] = shuffle.UnitProc[u]
	}
	checkBlocks(t, "fuzz/block", part, ops, sched.BlockMap(part, p), true)
	checkBlocks(t, "fuzz/blockgreedy", part, ops, sched.BlockMapGreedy(part, p), true)
	checkBlocks(t, "fuzz/unit-owner shuffle", part, ops, shuffle, true)
	if p > 1 {
		s := sched.BlockMap(part, p)
		q := at(4) % len(s.ElemProc)
		s.ElemProc[q] = (s.ElemProc[q] + 1) % int32(p)
		checkBlocks(t, "fuzz/one element re-owned", part, ops, s, false)
	}
}

// FuzzFetchAttribution holds the run kernel to the reference walk on a
// fuzzer-written pattern with fuzzer-written owners (element-granular, P
// past n and past 64) under a random task map, the closed form to the run
// kernel whenever the owners are column-uniform, and the block replay to
// the walk over a partition cut with fuzzer-written grain, width and
// relaxation (fuzzBlocks).
func FuzzFetchAttribution(f *testing.F) {
	f.Add([]byte{3, 2, 3, 0, 1, 1, 2, 0, 2, 0, 1, 2, 1, 0, 2, 2, 0})              // dense 4x4, P = 3, uniform
	f.Add([]byte{3, 2, 3, 0, 1, 1, 2, 0, 2, 1, 0, 1, 2, 0, 1, 2, 0, 1})           // same, element owners
	f.Add([]byte{22, 69, 40, 0, 5, 5, 9, 9, 1, 1, 20, 3, 7, 0, 4, 66, 65, 3, 68}) // P = 70 > 64 > n
	f.Add([]byte{5, 29, 6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 1, 3, 0, 25, 7})   // chain, P = 30 > n
	f.Add([]byte{10, 0, 9, 0, 11, 1, 11, 2, 11, 2, 3, 0, 0, 0, 1, 5, 5, 0, 2})    // P = 1
	f.Fuzz(func(t *testing.T, data []byte) {
		m, p, script := fuzzCase(data)
		if m == nil {
			return
		}
		fac := symbolic.Analyze(m)
		ops := model.NewOps(fac)
		owners := fuzzOwners(fac, p, script)
		s := &sched.Schedule{P: p, ElemProc: owners}
		// A random task map: any number of tasks up to one per element.
		rng := rand.New(rand.NewSource(int64(len(data))<<8 | int64(data[0])))
		ntasks := 1 + rng.Intn(fac.NNZ())
		taskOf := make([]int32, fac.NNZ())
		for q := range taskOf {
			taskOf[q] = int32(rng.Intn(ntasks))
		}
		checkAttribution(t, "fuzz/tasks", ops, s, taskOf, FetchStatsTasks(ops, s, ntasks, taskOf))
		checkColumns(t, "fuzz", ops, s, columnUniform(fac, owners))
		fuzzBlocks(t, fac, p, script)
	})
}

// columnUniform says which path FetchStatsColumns must take: element
// owners drawn one by one can still agree on every column.
func columnUniform(f *symbolic.Factor, owners []int32) bool {
	for j := 0; j < f.N; j++ {
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			if owners[q] != owners[f.ColPtr[j]] {
				return false
			}
		}
	}
	return true
}

// update is one pair update L[Tgt] -= L[SrcI]*L[SrcJ] by factor position:
// for target (i, j) updated from column k, SrcI is (i, k) and SrcJ (j, k).
type update struct {
	Tgt, SrcI, SrcJ int32
}

// forEachUpdate is model.Ops.ForEachRun with the per-element loop supplied:
// one callback per pair update, targets, sources and rows all increasing.
func forEachUpdate(ops *model.Ops, fn func(u update)) {
	rowInd := ops.F.RowInd
	ops.ForEachRun(func(r model.Run) {
		for q := r.Lo; q < r.Hi; q++ {
			fn(update{Tgt: r.Tgt[rowInd[q]], SrcI: q, SrcJ: r.Lo})
		}
	})
}

// forEachScale calls fn for every final diagonal update: for each
// off-diagonal element (i, j), its scale by the diagonal (j, j); and for
// each diagonal element, its square root (diag position passed twice).
func forEachScale(ops *model.Ops, fn func(tgt, diag int32)) {
	f := ops.F
	for j := 0; j < f.N; j++ {
		base := int32(f.ColPtr[j])
		for q := base; q < int32(f.ColPtr[j+1]); q++ {
			fn(q, base)
		}
	}
}
