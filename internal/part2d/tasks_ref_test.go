package part2d

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/strategy"
	"repro/internal/traffic"
)

// The element walk: Tasks' predecessor pass and Traffic's first-fetch
// pass as they were before the segment passes, visiting every pair update
// of the factorization. Nothing but the tests calls them; the segment
// passes (and the dense-table oracle in tiles_ref_test.go) are pinned to
// them. FetchStats' walk is fetchWalk, traffic's element walk.

// firstFetch returns the first-fetch rule of the paper's caching model
// over nnz elements and p processors: the function reports whether proc
// fetches element q for the first time, and marks the pair fetched.
func firstFetch(p, nnz int) func(q, proc int32) bool {
	seen := make([]bool, p*nnz)
	return func(q, proc int32) bool {
		i := int(q)*p + int(proc)
		first := !seen[i]
		seen[i] = true
		return first
	}
}

// fetchWalk attributes every distinct non-local fetch of s to the tasks of
// taskOf, one access at a time: the two sources of every pair update in
// model.Ops.ForEachRun's order, then the diagonal read of every scale, each
// first (element, processor) fetch charged to the task of its target.
func fetchWalk(s *sched.Schedule, ntasks int, taskOf []int32) *traffic.TaskComm {
	f, owner := s.F, elemOwners(s)
	fetched, ch := firstFetch(s.P, f.NNZ()), traffic.NewCharger(s.P, ntasks, nil)
	vol := make([]int64, ntasks)
	fetch := func(q, tgt int32) {
		if o, proc := owner[q], owner[tgt]; o != proc && fetched(q, proc) {
			vol[taskOf[tgt]]++
			ch.Message(int(taskOf[tgt]), o)
		}
	}
	model.NewOps(f).ForEachRun(func(r model.Run) {
		for q := r.Lo; q < r.Hi; q++ {
			tgt := r.Tgt[f.RowInd[q]]
			fetch(q, tgt)
			fetch(r.Lo, tgt)
		}
	})
	for j := 0; j < f.N; j++ {
		for q := f.ColPtr[j] + 1; q < f.ColPtr[j+1]; q++ {
			fetch(int32(f.ColPtr[j]), int32(q))
		}
	}
	tc := ch.Done()
	for t, v := range vol {
		tc.Vol[t] += v
	}
	return tc
}

// walkTasks is the merged tile-segment task graph over the element
// ownership elemProc, one update at a time.
func walkTasks(ops *model.Ops, elemWork []uint32, elemProc []int32) ([]exec.Task, []int32) {
	f := ops.F
	elemTask := make([]int32, f.NNZ())
	var tasks []exec.Task
	type group struct {
		proc int32
		task int32
	}
	var groups []group
	for j := 0; j < f.N; j++ {
		groups = groups[:0]
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			proc := elemProc[q]
			task := int32(-1)
			for _, g := range groups {
				if g.proc == proc {
					task = g.task
					break
				}
			}
			if task < 0 {
				task = int32(len(tasks))
				tasks = append(tasks, exec.Task{Proc: proc})
				groups = append(groups, group{proc: proc, task: task})
			}
			elemTask[q] = task
			tasks[task].Work += int64(elemWork[q])
		}
	}
	preds := make([][]int32, len(tasks))
	stamp := make([]int32, len(tasks))
	for i := range stamp {
		stamp[i] = -1
	}
	rowInd := f.RowInd
	ops.ForEachRun(func(r model.Run) {
		srcJ := elemTask[r.Lo]
		for q := r.Lo; q < r.Hi; q++ {
			t := elemTask[r.Tgt[rowInd[q]]]
			if src := elemTask[q]; src != t && stamp[src] != t {
				stamp[src] = t
				preds[t] = append(preds[t], src)
			}
			if srcJ != t && stamp[srcJ] != t {
				stamp[srcJ] = t
				preds[t] = append(preds[t], srcJ)
			}
		}
	})
	for j := 0; j < f.N; j++ {
		diag := elemTask[f.ColPtr[j]]
		for _, t := range elemTask[f.ColPtr[j]+1 : f.ColPtr[j+1]] {
			if diag != t && stamp[diag] != t {
				stamp[diag] = t
				preds[t] = append(preds[t], diag)
			}
		}
	}
	for i := range preds {
		p := preds[i]
		sort.Slice(p, func(a, b int) bool { return p[a] < p[b] })
		out := p[:0]
		for k, v := range p {
			if k == 0 || v != p[k-1] {
				out = append(out, v)
			}
		}
		tasks[i].Preds = out
	}
	return tasks, elemTask
}

// walkTraffic is the tile-granular traffic simulation over the element
// ownership elemProc on p processors, one update at a time: every first
// fetch charged to tileOf of its target, fan-out for a pair-update
// source, fan-in for a multiplier or a diagonal.
func walkTraffic(ops *model.Ops, p, r int, elemProc, tileOf []int32, ntiles int) *TrafficResult {
	f := ops.F
	res := &TrafficResult{
		P: p, R: r,
		FanOut:  make([]int64, ntiles),
		FanIn:   make([]int64, ntiles),
		PerProc: make([]int64, p),
	}
	fetched := firstFetch(p, f.NNZ())
	owner, rowInd := elemProc, f.RowInd
	charge := func(dir []int64, tgt, proc int32) {
		res.Total++
		res.PerProc[proc]++
		dir[tileOf[tgt]]++
	}
	ops.ForEachRun(func(r model.Run) {
		lo, ownerLo := r.Lo, owner[r.Lo]
		for q := lo; q < r.Hi; q++ {
			tgt := r.Tgt[rowInd[q]]
			proc := owner[tgt]
			if owner[q] != proc && fetched(q, proc) {
				charge(res.FanOut, tgt, proc)
			}
			if ownerLo != proc && fetched(lo, proc) {
				charge(res.FanIn, tgt, proc)
			}
		}
	})
	for j := 0; j < f.N; j++ {
		diag := int32(f.ColPtr[j])
		for q := diag + 1; q < int32(f.ColPtr[j+1]); q++ {
			if proc := owner[q]; owner[diag] != proc && fetched(diag, proc) {
				charge(res.FanIn, q, proc)
			}
		}
	}
	return res
}

// checkSegmentsMatchWalk holds Tasks, FetchStats and Traffic — and the
// segment pass itself, past the column-granular shortcut — to the element
// walk: the same tasks (ID, Proc, Work, Preds with nil equal to empty; on
// a column-granular schedule Tasks' are cut to the elimination tree,
// treeTasks) and element map (Tasks' nil exactly where the walk's is the
// column index, columnMap), the same Vol and Msgs task by task, the same
// per-tile fan-out and fan-in. FetchStats must accept every map Tasks
// returns, and panic with a part2d message on one task per element when
// that splits a row-block segment (it equals the walk when it does not).
func checkSegmentsMatchWalk(t testing.TB, label string, ops *model.Ops, elemWork []uint32, s *Schedule2D) {
	t.Helper()
	f := ops.F
	wantTasks, wantElemTask := walkTasks(ops, elemWork, s.elemProc)
	wantFetch := fetchWalk(s.Schedule(), len(wantTasks), wantElemTask)
	for _, e := range []struct {
		name string
		fn   func(*model.Ops, []uint32, *Schedule2D) ([]exec.Task, []int32)
	}{{"Tasks", Tasks}, {"segmentTasks", segmentTasks}} {
		tasks, elemTask := e.fn(ops, elemWork, s)
		want, wantMap := wantTasks, wantElemTask
		if e.name == "Tasks" {
			wantMap = columnMap(f, wantElemTask)
			if s.colProc != nil {
				want = treeTasks(f, wantTasks)
			}
		}
		if err := sameTasks(tasks, want); err != nil || !sameMap(elemTask, wantMap) {
			t.Fatalf("%s: %s differ from the walk (nil map %v, want %v): %v", label, e.name, elemTask == nil, wantMap == nil, err)
		}
		if got := FetchStats(ops, s, len(tasks), elemTask); !reflect.DeepEqual(got, wantFetch) {
			t.Fatalf("%s: FetchStats differ from the walk (vol %d msgs %d, want %d / %d)",
				label, got.TotalVol(), got.TotalMsgs(), wantFetch.TotalVol(), wantFetch.TotalMsgs())
		}
	}
	perElem := make([]int32, f.NNZ())
	for q := range perElem {
		perElem[q] = int32(q)
	}
	if split := len(tileSegments(f, s).block) < f.NNZ(); split {
		if msg := panicked(func() { FetchStats(ops, s, len(perElem), perElem) }); !strings.HasPrefix(msg, "part2d: ") {
			t.Fatalf("%s: FetchStats on a task map that splits a row-block segment: panic %q, want a part2d message", label, msg)
		}
	} else if got, want := FetchStats(ops, s, len(perElem), perElem), fetchWalk(s.Schedule(), len(perElem), perElem); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: FetchStats under one task per element differ from the walk (vol %d msgs %d, want %d / %d)",
			label, got.TotalVol(), got.TotalMsgs(), want.TotalVol(), want.TotalMsgs())
	}
	tile := newTiling(f, s.bounds).elemTile
	if tr, want := Traffic(ops, s), walkTraffic(ops, s.P, s.R(), s.elemProc, tile, s.Tiles()); !reflect.DeepEqual(tr, want) {
		t.Fatalf("%s: Traffic differs from the walk (total %d fan-out %d fan-in %d, want %d / %d / %d)",
			label, tr.Total, tr.TotalFanOut(), tr.TotalFanIn(), want.Total, want.TotalFanOut(), want.TotalFanIn())
	}
}

// panicked returns what fn panics with, printed, or "" when it returns.
func panicked(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// randomOwners is a schedule over bounds whose every tile gets a seeded
// random owner: genuinely 2D, with none of a mapper's structure.
func randomOwners(t testing.TB, sys *strategy.Sys, p int, bounds []int, seed int64) *Schedule2D {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s2, err := fromOwner(sys.F, sys.ElemWork, p, bounds, func(int, int) int32 { return int32(rng.Intn(p)) })
	if err != nil {
		t.Fatal(err)
	}
	return s2
}

// TestSegmentTasksMatchWalk: on every suite matrix, every registered 2D
// mapper and the col2d lift of every column-granular 1D strategy at
// P in {1, 2, 4, 16, 64, 65, n+7}, and schedules with seeded random tile
// owners, the segment passes are the element walk task by task and tile
// by tile, FetchStats accepts the task map Tasks returns and rejects one
// that splits a segment (see checkSegmentsMatchWalk).
func TestSegmentTasksMatchWalk(t *testing.T) {
	for mname, sys := range suite(t) {
		procs := []int{1, 2, 4, 16, 64, 65, sys.F.N + 7}
		if raceBuild || testing.Short() {
			procs = []int{2, 16, 65}
		}
		for _, p := range procs {
			for _, name := range Names2D() {
				s2, err := Map2D(name, sys, p, strategy.Options{})
				if err != nil {
					t.Fatal(err)
				}
				checkSegmentsMatchWalk(t, fmt.Sprintf("%s/%s P=%d", name, mname, p), sys.Ops, sys.ElemWork, s2)
			}
			for _, base := range LiftBases() {
				sc, err := strategy.Map(base, sys, p, strategy.Options{Base: base})
				if err != nil {
					t.Fatal(err)
				}
				s2, err := Lift(sys, sc, base)
				if err != nil {
					t.Fatal(err)
				}
				checkSegmentsMatchWalk(t, fmt.Sprintf("col2d(%s)/%s P=%d", base, mname, p), sys.Ops, sys.ElemWork, s2)
			}
			bounds := refBounds(sys, p)
			checkSegmentsMatchWalk(t, fmt.Sprintf("random owners/%s P=%d", mname, p), sys.Ops, sys.ElemWork,
				randomOwners(t, sys, p, bounds, int64(p)))
		}
	}
}

// TestSegmentTasksAllocs: Tasks + FetchStats on a genuinely 2D plan
// allocate the same number of times on LAP30 and on a 16 x larger grid —
// nothing per task, per predecessor list or per fetch.
func TestSegmentTasksAllocs(t *testing.T) {
	allocs := func(sys *strategy.Sys) float64 {
		s2, err := Map2D("rect2dlpt", sys, 16, strategy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if s2.colProc != nil {
			t.Fatal("rect2dlpt schedule is column-granular: Tasks would skip the segment pass")
		}
		return testing.AllocsPerRun(3, func() {
			tasks, elemTask := Tasks(sys.Ops, sys.ElemWork, s2)
			FetchStats(sys.Ops, s2, len(tasks), elemTask)
		})
	}
	small, large := allocs(lapSys(t)), allocs(newTestSys(t, gen.Grid9(60, 60)))
	t.Logf("Tasks + FetchStats allocations: LAP30 %v, Grid9(60,60) %v", small, large)
	if small != large {
		t.Errorf("allocations grow with the matrix: LAP30 %v, Grid9(60,60) %v", small, large)
	}
}
