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
func refFetchPerTask(s *sched.Schedule, ntasks int, taskOf func(tgt int32) int32) *TaskComm {
	ops := model.NewOps(s.F)
	nnz := s.F.NNZ()
	tc := &TaskComm{Vol: make([]int64, ntasks), Msgs: make([]int64, ntasks)}
	fetched := newFetchDedup(s.P, nnz)
	msgSeen := make(map[int64]struct{}) // distinct (source processor, task) pairs
	owners := refElemProc(s)
	access := func(elem, tgt int32) {
		proc := owners[tgt]
		owner := owners[elem]
		if owner == proc || !fetched.firstFetch(elem, proc) {
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
func checkAttribution(t testing.TB, name string, s *sched.Schedule, taskOf []int32, got *TaskComm) {
	t.Helper()
	want := refFetchPerTask(s, len(got.Vol), func(tgt int32) int32 { return taskOf[tgt] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: attribution differs from the reference walk (vol %d msgs %d, want %d / %d)",
			name, got.TotalVol(), got.TotalMsgs(), want.TotalVol(), want.TotalMsgs())
	}
	if sim := Simulate(s).Total; got.TotalVol() != sim {
		t.Fatalf("%s: volumes sum to %d, Simulate total %d", name, got.TotalVol(), sim)
	}
}

// checkColumns holds both column paths to the reference on a
// column-granular schedule: FetchStats' closed form and the run kernel over
// the column index.
func checkColumns(t testing.TB, name string, s *sched.Schedule) {
	t.Helper()
	colOf := s.F.ColIndex()
	checkAttribution(t, name+"/columns", s, colOf, FetchStats(s))
	checkAttribution(t, name+"/run kernel", s, colOf, FetchStatsTasks(s, s.F.N, colOf))
}

func TestFetchStatsPanics(t *testing.T) {
	ops, part, ew := pipeline(gen.Grid9(5, 5), 4, 4)
	s, bs := sched.WrapMap(ops.F, ew, 3), sched.BlockMap(part, 3)
	noProcs := &sched.Schedule{F: s.F, ColProc: s.ColProc}
	noUnitProcs := &sched.Schedule{F: bs.F, Part: bs.Part, UnitProc: bs.UnitProc}
	neither := &sched.Schedule{P: 3, F: s.F, ElemProc: refElemProc(s), Work: s.Work}
	colOf := ops.F.ColIndex()
	for name, fn := range map[string]func(){
		"columns, P = 0":        func() { FetchStats(noProcs) },
		"units, P = 0":          func() { FetchStats(noUnitProcs) },
		"neither owner vector":  func() { FetchStats(neither) },
		"tasks, P = 0":          func() { FetchStatsTasks(noProcs, ops.F.N, colOf) },
		"tasks, short task map": func() { FetchStatsTasks(s, ops.F.N, colOf[1:]) },
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
		if fl := Simulate(wl).Total; fl < 100*Simulate(ws).Total/10 {
			t.Fatalf("P=%d: LAP30 fetches %d elements, not ten times the small grid's; the pin compares nothing", p, fl)
		}
		cols := allocs(func() { FetchStats(wl) })
		if base := allocs(func() { FetchStats(ws) }); cols != base || cols > 8 {
			t.Errorf("P=%d: FetchStats allocates %.0f objects on LAP30's column schedule, %.0f on a 6x6 grid; want equal and at most 8", p, cols, base)
		}
		blocks := allocs(func() { FetchStats(bl) })
		if base := allocs(func() { FetchStats(bs) }); blocks != base || blocks > 8 {
			t.Errorf("P=%d: FetchStats allocates %.0f objects on LAP30's block schedule, %.0f on a 6x6 grid; want equal and at most 8", p, blocks, base)
		}
		run := allocs(func() { FetchStatsTasks(bl, len(part.Units), part.ElemUnit) })
		colOf := small.F.ColIndex()
		if base := allocs(func() { FetchStatsTasks(ws, small.F.N, colOf) }); run != base || run > 8 {
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
			{"columns/reference", func() { refFetchPerTask(wrap, ops.F.N, func(q int32) int32 { return colOf[q] }) }},
			{"columns/closed", func() { FetchStats(wrap) }},
			{"columns/runs", func() { FetchStatsTasks(wrap, ops.F.N, colOf) }},
			{"blocks/reference", func() {
				refFetchPerTask(block, len(part.Units), func(q int32) int32 { return part.ElemUnit[q] })
			}},
			{"blocks/runs", func() { FetchStatsTasks(block, len(part.Units), part.ElemUnit) }},
			{"blocks/replay", func() { FetchStats(block) }},
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

// checkBlocks holds FetchStats' read-map replay to the reference walk over
// the unit map on a block schedule.
func checkBlocks(t testing.TB, name string, s *sched.Schedule) {
	t.Helper()
	checkAttribution(t, name, s, s.Part.ElemUnit, FetchStats(s))
}

// fuzzBlocks partitions the factor under options drawn from the script and
// holds the block attribution to the reference walk on the schedules of
// both Section 3.4 allocators and on a unit-owner shuffle.
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
	shuffle := &sched.Schedule{P: p, F: part.F, Part: part, UnitProc: make([]int32, len(part.Units))}
	for u := range shuffle.UnitProc {
		shuffle.UnitProc[u] = int32(at(3+u) % p)
	}
	checkBlocks(t, "fuzz/block", sched.BlockMap(part, p))
	checkBlocks(t, "fuzz/blockgreedy", sched.BlockMapGreedy(part, p))
	checkBlocks(t, "fuzz/unit-owner shuffle", shuffle)
}

// FuzzFetchAttribution holds the run kernel to the reference walk on a
// fuzzer-written pattern with fuzzer-written owners (element-granular, P
// past n and past 64) under a random task map, the closed form to the run
// kernel on the column schedule of those owners whenever every column has
// one, and the block replay to the walk over a partition cut with
// fuzzer-written grain, width and relaxation (fuzzBlocks).
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
		owners := fuzzOwners(fac, p, script)
		s := &sched.Schedule{P: p, F: fac, ElemProc: owners}
		// A random task map: any number of tasks up to one per element.
		rng := rand.New(rand.NewSource(int64(len(data))<<8 | int64(data[0])))
		ntasks := 1 + rng.Intn(fac.NNZ())
		taskOf := make([]int32, fac.NNZ())
		for q := range taskOf {
			taskOf[q] = int32(rng.Intn(ntasks))
		}
		checkAttribution(t, "fuzz/tasks", s, taskOf, FetchStatsTasks(s, ntasks, taskOf))
		if cols := ownerPerColumn(fac, owners); cols != nil {
			checkColumns(t, "fuzz", sched.ColumnMap(fac, model.Work(model.NewOps(fac)), p, cols))
		}
		fuzzBlocks(t, fac, p, script)
	})
}

// ownerPerColumn returns the owner of every column when each column's
// element owners agree (element owners drawn one by one can), nil
// otherwise.
func ownerPerColumn(f *symbolic.Factor, owners []int32) []int32 {
	cols := make([]int32, f.N)
	for j := range cols {
		cols[j] = owners[f.ColPtr[j]]
		for _, o := range owners[f.ColPtr[j]:f.ColPtr[j+1]] {
			if o != cols[j] {
				return nil
			}
		}
	}
	return cols
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
