package part2d

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/strategy"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

// The dense-table oracle: the 2D tile subsystem as it was before the
// sparse tile store, one owner per lower-triangle tile in a packed
// R(R+1)/2 table — empty tiles included — filled by the mappers and read
// by Tasks and Traffic through the packed index. Nothing but the tests
// calls it; the sparse store, the closed forms on column-granular
// schedules and the shared rectilinear cuts are pinned to it.

// denseID returns the packed index of tile (r, c); c <= r is required.
func denseID(r, c int) int { return r*(r+1)/2 + c }

// refSchedule is a Schedule2D with the dense owner table.
type refSchedule struct {
	P        int
	F        *symbolic.Factor
	Bounds   []int
	Owner    []int32 // packed by denseID
	BlockOf  []int32
	Work     []int64
	ElemProc []int32
}

func (s *refSchedule) schedule() *sched.Schedule {
	return &sched.Schedule{P: s.P, F: s.F, ElemProc: s.ElemProc, Work: s.Work}
}

// refNew is New over a dense owner table (inputs are valid by
// construction in the tests).
func refNew(f *symbolic.Factor, elemWork []uint32, p int, bounds []int, owner []int32) *refSchedule {
	s := &refSchedule{
		P: p, F: f, Bounds: bounds, Owner: owner,
		BlockOf: strategy.IntervalIndex(f.N, bounds), Work: make([]int64, p), ElemProc: make([]int32, f.NNZ()),
	}
	for j := 0; j < f.N; j++ {
		c := int(s.BlockOf[j])
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			proc := s.Owner[denseID(int(s.BlockOf[f.RowInd[q]]), c)]
			s.ElemProc[q] = proc
			s.Work[proc] += int64(elemWork[q])
		}
	}
	return s
}

// denseOwners evaluates an owner rule on every lower-triangle tile.
func denseOwners(r int, owner func(r, c int) int32) []int32 {
	out := make([]int32, r*(r+1)/2)
	for rr := 0; rr < r; rr++ {
		for cc := 0; cc <= rr; cc++ {
			out[denseID(rr, cc)] = owner(rr, cc)
		}
	}
	return out
}

// refTileWork accumulates elemWork per packed lower-triangle tile.
func refTileWork(f *symbolic.Factor, elemWork []uint32, bounds []int) []int64 {
	blockOf := strategy.IntervalIndex(f.N, bounds)
	r := len(bounds) - 1
	tw := make([]int64, r*(r+1)/2)
	for j := 0; j < f.N; j++ {
		c := int(blockOf[j])
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			tw[denseID(int(blockOf[f.RowInd[q]]), c)] += int64(elemWork[q])
		}
	}
	return tw
}

// refBounds is rectBounds computed afresh, independent of the cuts the
// Sys shares.
func refBounds(sys *strategy.Sys, p int) []int {
	cuts := strategy.NewSys(sys.F, sys.Ops, nil).RectilinearCuts(p)
	bounds := []int{cuts[0]}
	for _, b := range cuts[1:] {
		if b > bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	return bounds
}

// refColProc returns the owner of every column when each column's element
// owners agree, nil otherwise: what a schedule's column owners must be.
func refColProc(f *symbolic.Factor, elemProc []int32) []int32 {
	col := make([]int32, f.N)
	for j := range col {
		col[j] = elemProc[f.ColPtr[j]]
		for _, o := range elemProc[f.ColPtr[j]:f.ColPtr[j+1]] {
			if o != col[j] {
				return nil
			}
		}
	}
	return col
}

// elemOwners is the owner of every element of sc.F, read column by column.
func elemOwners(sc *sched.Schedule) []int32 {
	var out []int32
	for j := 0; j < sc.F.N; j++ {
		out = sc.AppendOwners(out, j)
	}
	return out
}

// refLift is Lift of a column-granular 1D schedule over the dense table.
func refLift(sys *strategy.Sys, sc *sched.Schedule) *refSchedule {
	f := sys.F
	owner1d := refColProc(f, elemOwners(sc))
	bounds := []int{0}
	for j := 1; j < f.N; j++ {
		if owner1d[j] != owner1d[j-1] {
			bounds = append(bounds, j)
		}
	}
	if f.N > 0 {
		bounds = append(bounds, f.N)
	}
	owner := denseOwners(len(bounds)-1, func(_, c int) int32 { return owner1d[bounds[c]] })
	return refNew(f, sys.ElemWork, sc.P, bounds, owner)
}

// refLPTOwners is rect2dlpt over the dense table: every tile, empty ones
// included, heaviest first by packed index.
func refLPTOwners(sys *strategy.Sys, p int, bounds []int) []int32 {
	tw := refTileWork(sys.F, sys.ElemWork, bounds)
	order := make([]int, len(tw))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if tw[order[a]] != tw[order[b]] {
			return tw[order[a]] > tw[order[b]]
		}
		return order[a] < order[b]
	})
	owner := make([]int32, len(tw))
	load := make([]int64, p)
	for _, t := range order {
		least := sched.LeastLoaded(load)
		owner[t] = int32(least)
		load[least] += tw[t]
	}
	return owner
}

// refCyclicOwners is rect2dcyclic over the dense table.
func refCyclicOwners(p int, bounds []int) []int32 {
	pr := 1
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			pr = d
		}
	}
	pc := p / pr
	return denseOwners(len(bounds)-1, func(r, c int) int32 { return int32((r%pr)*pc + c%pc) })
}

// referenceGuardedOwners is the rect2d descent as it was before
// traffic.Incremental and the sparse store: the same start, the same trial
// order over every off-diagonal tile of the dense table and the same
// accept rule, with every trial scored by a full traffic.Simulate.
func referenceGuardedOwners(sys *strategy.Sys, p int, bounds []int, budget int, tel *obs.SearchTelemetry) []int32 {
	f := sys.F
	r := len(bounds) - 1
	tw := refTileWork(f, sys.ElemWork, bounds)
	blockOf := strategy.IntervalIndex(f.N, bounds)
	owner := make([]int32, len(tw))
	rowOf := make([]int, len(tw))
	for rr := 0; rr < r; rr++ {
		for cc := 0; cc <= rr; cc++ {
			owner[denseID(rr, cc)] = int32(cc)
			rowOf[denseID(rr, cc)] = rr
		}
	}
	if p < 2 || r < 2 {
		return owner
	}
	elems := make([][]int32, len(tw))
	elemProc := make([]int32, f.NNZ())
	load := make([]int64, p)
	for j := 0; j < f.N; j++ {
		c := int(blockOf[j])
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			id := denseID(int(blockOf[f.RowInd[q]]), c)
			elems[id] = append(elems[id], int32(q))
			elemProc[q] = owner[id]
			load[owner[id]] += int64(sys.ElemWork[q])
		}
	}
	sc := &sched.Schedule{P: p, F: sys.F, ElemProc: elemProc, Work: load}
	setOwner := func(id int, dst int32) {
		src := owner[id]
		owner[id] = dst
		load[src] -= tw[id]
		load[dst] += tw[id]
		for _, q := range elems[id] {
			elemProc[q] = dst
		}
	}
	sumsq := func() float64 {
		var s float64
		for _, l := range load {
			s += float64(l) * float64(l)
		}
		return s
	}
	cur := traffic.Simulate(sc).Total
	tel.Objective(cur)
	offs := make([]int, 0, len(tw)-r)
	for rr := 1; rr < r; rr++ {
		for cc := 0; cc < rr; cc++ {
			offs = append(offs, denseID(rr, cc))
		}
	}
	sort.Slice(offs, func(a, b int) bool {
		if tw[offs[a]] != tw[offs[b]] {
			return tw[offs[a]] > tw[offs[b]]
		}
		return offs[a] < offs[b]
	})
	evals := 0
	for _, id := range offs {
		if evals >= budget {
			break
		}
		least := int32(0)
		for k := 1; k < p; k++ {
			if load[k] < load[least] {
				least = int32(k)
			}
		}
		home := owner[denseID(rowOf[id], rowOf[id])]
		for ci, dst := range [...]int32{home, least} {
			src := owner[id]
			if dst == src || (ci == 1 && dst == home) {
				continue
			}
			before := sumsq()
			setOwner(id, dst)
			evals++
			nt := traffic.Simulate(sc).Total
			if nt < cur || (nt == cur && sumsq() < before) {
				cur = nt
				tel.Trial(true)
				tel.Objective(nt)
				break
			}
			setOwner(id, src)
			tel.Trial(false)
			if evals >= budget {
				break
			}
		}
	}
	return owner
}

// refTraffic is the tile-granular traffic walk charging the dense
// table's tiles: per-tile volumes packed by denseID.
func refTraffic(ops *model.Ops, s *refSchedule) *TrafficResult {
	f := ops.F
	r := len(s.Bounds) - 1
	tileOf := make([]int32, f.NNZ())
	for j := 0; j < f.N; j++ {
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			tileOf[q] = int32(denseID(int(s.BlockOf[f.RowInd[q]]), int(s.BlockOf[j])))
		}
	}
	return walkTraffic(ops, s.P, r, s.ElemProc, tileOf, r*(r+1)/2)
}

// sameTileOwners reports whether the sparse store's owners are the dense
// table's on every tile the store holds.
func sameTileOwners(s *Schedule2D, dense []int32) bool {
	for c := 0; c < s.R(); c++ {
		for t := s.tilePtr[c]; t < s.tilePtr[c+1]; t++ {
			if s.owner[t] != dense[denseID(int(s.tileRow[t]), c)] {
				return false
			}
		}
	}
	return true
}

// sameTasks compares two task graphs with nil and empty Preds equal.
func sameTasks(a, b []exec.Task) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d tasks, want %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Proc != b[i].Proc || a[i].Work != b[i].Work || !slices.Equal(a[i].Preds, b[i].Preds) {
			return fmt.Errorf("task %d = %+v, want %+v", i, a[i], b[i])
		}
	}
	return nil
}

// treeTasks is tasks, a column graph with the walk's predecessors — task
// j is column j and waits on row j of the factor — cut to the graph
// exec.ColumnTasksMapped builds: each row keeps the columns whose first
// row below the diagonal is j, its elimination-tree children. Read off
// the columns.
func treeTasks(f *symbolic.Factor, tasks []exec.Task) []exec.Task {
	out := slices.Clone(tasks)
	for j := range out {
		out[j].Preds = slices.DeleteFunc(slices.Clone(tasks[j].Preds), func(c int32) bool { return f.Col(int(c))[1] != int32(j) })
	}
	return out
}

// columnMap is the element map Tasks returns where the walk's is walk:
// nil exactly where walk is the column index (a column graph, task j is
// column j), walk otherwise.
func columnMap(f *symbolic.Factor, walk []int32) []int32 {
	if slices.Equal(walk, f.ColIndex()) {
		return nil
	}
	return walk
}

// sameMap reports whether two element maps are equal, nil only to nil.
func sameMap(a, b []int32) bool { return (a == nil) == (b == nil) && slices.Equal(a, b) }

// checkAgainstRef holds a schedule to its dense twin: the same derived
// ownership, a tile store holding exactly the tiles with a factor nonzero
// (each once, rows ascending, the diagonal first) under the dense owners,
// and the same task graph, fetch attribution and per-tile traffic. It
// returns the task count of the graph.
func checkAgainstRef(t testing.TB, label string, ops *model.Ops, elemWork []uint32, s *Schedule2D, ref *refSchedule) int {
	t.Helper()
	f := ops.F
	if s.P != ref.P || !slices.Equal(s.bounds, ref.Bounds) || !slices.Equal(s.blockOf, ref.BlockOf) ||
		!slices.Equal(s.elemProc, ref.ElemProc) || !slices.Equal(s.work, ref.Work) {
		t.Fatalf("%s: schedule differs from the dense oracle's", label)
	}
	if want := refColProc(f, ref.ElemProc); (s.colProc == nil) != (want == nil) || !slices.Equal(s.colProc, want) {
		t.Fatalf("%s: column owners (nil %v) differ from the element owners' (nil %v)", label, s.colProc == nil, want == nil)
	}
	r := s.R()
	if len(s.tilePtr) != r+1 || s.tilePtr[0] != 0 || int(s.tilePtr[r]) != len(s.tileRow) || len(s.owner) != len(s.tileRow) {
		t.Fatalf("%s: malformed tile index (R = %d, %d pointers, %d rows, %d owners)", label, r, len(s.tilePtr), len(s.tileRow), len(s.owner))
	}
	occupied := make(map[int]bool)
	for j := 0; j < f.N; j++ {
		for _, i := range f.Col(j) {
			occupied[denseID(int(ref.BlockOf[i]), int(ref.BlockOf[j]))] = true
		}
	}
	for c := 0; c < r; c++ {
		rows := s.tileRow[s.tilePtr[c]:s.tilePtr[c+1]]
		if len(rows) == 0 || rows[0] != int32(c) {
			t.Fatalf("%s: block column %d does not start at its diagonal tile: %v", label, c, rows)
		}
		for k, rb := range rows {
			if k > 0 && rows[k-1] >= rb {
				t.Fatalf("%s: block column %d rows not strictly ascending: %v", label, c, rows)
			}
			id := denseID(int(rb), c)
			if !occupied[id] {
				t.Fatalf("%s: tile (%d, %d) stored but empty", label, rb, c)
			}
			delete(occupied, id)
			if got, want := s.TileOwner(int(rb), c), ref.Owner[id]; got != want {
				t.Fatalf("%s: tile (%d, %d) owned by %d, dense oracle %d", label, rb, c, got, want)
			}
		}
	}
	if len(occupied) != 0 {
		t.Fatalf("%s: %d non-empty tiles missing from the store", label, len(occupied))
	}

	tasks, elemTask := Tasks(ops, elemWork, s)
	wantTasks, wantElemTask := walkTasks(ops, elemWork, ref.ElemProc)
	wantGraph := wantTasks
	if s.colProc != nil {
		wantGraph = treeTasks(f, wantTasks)
	}
	if err := sameTasks(tasks, wantGraph); err != nil || !sameMap(elemTask, columnMap(f, wantElemTask)) {
		t.Fatalf("%s: Tasks differ from the dense walk (nil map %v): %v", label, elemTask == nil, err)
	}
	got := FetchStats(ops, s, len(tasks), elemTask)
	want := fetchWalk(ref.schedule(), len(wantTasks), wantElemTask)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: FetchStats differ from the walk (vol %d msgs %d, want %d / %d)",
			label, got.TotalVol(), got.TotalMsgs(), want.TotalVol(), want.TotalMsgs())
	}

	tr, wtr := Traffic(ops, s), refTraffic(ops, ref)
	if tr.P != wtr.P || tr.R != wtr.R || tr.Total != wtr.Total || !slices.Equal(tr.PerProc, wtr.PerProc) ||
		tr.TotalFanOut() != wtr.TotalFanOut() || tr.TotalFanIn() != wtr.TotalFanIn() {
		t.Fatalf("%s: Traffic totals differ from the dense oracle's", label)
	}
	for c := 0; c < r; c++ {
		for k := s.tilePtr[c]; k < s.tilePtr[c+1]; k++ {
			id := denseID(int(s.tileRow[k]), c)
			if tr.FanOut[k] != wtr.FanOut[id] || tr.FanIn[k] != wtr.FanIn[id] {
				t.Fatalf("%s: tile (%d, %d) fan-out/in %d/%d, dense oracle %d/%d",
					label, s.tileRow[k], c, tr.FanOut[k], tr.FanIn[k], wtr.FanOut[id], wtr.FanIn[id])
			}
		}
	}
	return len(tasks)
}

// TestLiftsMatchDenseOracle: the col2d lift of every column-granular 1D
// strategy on every suite matrix, at narrow, one-word, two-word and
// past-n processor counts — the closed-form Tasks and FetchStats
// included — equals the dense-table oracle.
func TestLiftsMatchDenseOracle(t *testing.T) {
	for mname, sys := range suite(t) {
		procs := []int{1, 2, 4, 16, 64, 65, sys.F.N + 7}
		if raceBuild || testing.Short() {
			procs = []int{2, 65}
		}
		for _, base := range LiftBases() {
			for _, p := range procs {
				sc, err := strategy.Map(base, sys, p, strategy.Options{Base: base})
				if err != nil {
					t.Fatal(err)
				}
				s2, err := Lift(sys, sc, base)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("col2d(%s)/%s P=%d", base, mname, p)
				if ntasks := checkAgainstRef(t, label, sys.Ops, sys.ElemWork, s2, refLift(sys, sc)); ntasks != sys.F.N {
					t.Fatalf("%s: %d tasks on a column-granular lift, want one per column (%d)", label, ntasks, sys.F.N)
				}
			}
		}
	}
}

// TestMappersMatchDenseOracle: every registered 2D mapper at P in {4, 16}
// on every suite matrix equals its dense-table twin — rect2d's descent
// (trials over empty tiles included) at the default budget.
func TestMappersMatchDenseOracle(t *testing.T) {
	for mname, sys := range suite(t) {
		if raceBuild && mname != "LAP30" {
			continue
		}
		for _, p := range []int{4, 16} {
			bounds := refBounds(sys, p)
			dense := map[string]*refSchedule{
				"rect2d":       refNew(sys.F, sys.ElemWork, p, bounds, referenceGuardedOwners(sys, p, bounds, defaultRect2DEvals, nil)),
				"rect2dlpt":    refNew(sys.F, sys.ElemWork, p, bounds, refLPTOwners(sys, p, bounds)),
				"rect2dcyclic": refNew(sys.F, sys.ElemWork, p, bounds, refCyclicOwners(p, bounds)),
			}
			wrap, err := strategy.Map("wrap", sys, p, strategy.Options{})
			if err != nil {
				t.Fatal(err)
			}
			dense["col2d"] = refLift(sys, wrap)
			for _, name := range Names2D() {
				s2, err := Map2D(name, sys, p, strategy.Options{})
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstRef(t, fmt.Sprintf("%s/%s P=%d", name, mname, p), sys.Ops, sys.ElemWork, s2, dense[name])
			}
		}
	}
}

// TestReownedLiftFallsThrough: a wrap lift with one off-diagonal tile
// re-owned is no longer column-granular; the constructor must notice, so
// Tasks and FetchStats take the segment pass and still match the oracle.
func TestReownedLiftFallsThrough(t *testing.T) {
	sys := lapSys(t)
	const p = 4
	sc, err := strategy.Map("wrap", sys, p, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lift, err := Lift(sys, sc, "wrap")
	if err != nil {
		t.Fatal(err)
	}
	// The heaviest off-diagonal tile of the lift moves one processor on.
	c := 0
	for lift.tilePtr[c+1]-lift.tilePtr[c] < 2 {
		c++
	}
	rr := int(lift.tileRow[lift.tilePtr[c]+1])
	rule := func(r, cc int) int32 {
		o := lift.TileOwner(cc, cc)
		if r == rr && cc == c {
			o = (o + 1) % p
		}
		return o
	}
	s2, err := fromOwner(sys.F, sys.ElemWork, p, lift.bounds, rule)
	if err != nil {
		t.Fatal(err)
	}
	ref := refNew(sys.F, sys.ElemWork, p, lift.bounds, denseOwners(lift.R(), rule))
	if ntasks := checkAgainstRef(t, "re-owned wrap lift", sys.Ops, sys.ElemWork, s2, ref); ntasks != sys.F.N+1 {
		t.Fatalf("re-owned wrap lift: %d tasks, want one column split in two (%d)", ntasks, sys.F.N+1)
	}
}

// fuzzTiles decodes bytes into a small symmetric pattern (n <= 24, natural
// order), a processor count that may exceed both n and 64, a mode, the
// diagonal interval bounds (one cut bit per index) and an owner script.
func fuzzTiles(data []byte) (m *sparse.Matrix, p int, mode byte, cuts uint32, script []byte) {
	if len(data) < 7 {
		return nil, 0, 0, 0, nil
	}
	n := 2 + int(data[0])%23
	p = 1 + int(data[1])%100
	nedges := int(data[2]) % 64
	mode = data[3]
	cuts = uint32(data[4]) | uint32(data[5])<<8 | uint32(data[6])<<16
	data = data[7:]
	var edges [][2]int
	for ; nedges > 0 && len(data) >= 2; nedges-- {
		edges = append(edges, [2]int{int(data[0]) % n, int(data[1]) % n})
		data = data[2:]
	}
	m, err := sparse.NewPattern(n, edges)
	if err != nil {
		return nil, 0, 0, 0, nil
	}
	return m, p, mode, cuts, data
}

// FuzzTiles2D holds the sparse tile store to the dense-table oracle on
// fuzzer-written patterns, bounds and tile owners: New under an arbitrary
// owner rule or a column-granular one (the closed forms), and every mapper
// and the lift of a fuzzer-written column ownership. Every schedule's
// fan-out plus fan-in is traffic.Simulate's total, and its segment passes
// are the element walk (tasks_ref_test.go).
func FuzzTiles2D(f *testing.F) {
	f.Add([]byte{3, 2, 3, 0, 0b101, 0, 0, 0, 1, 1, 2, 0, 2, 0, 1, 1, 0})              // dense 4x4, P = 3
	f.Add([]byte{22, 69, 40, 1, 0x55, 0x55, 0x55, 0, 5, 5, 9, 9, 1, 1, 20, 3, 7, 9})  // P = 70 > 64 > n, column-granular
	f.Add([]byte{5, 29, 6, 2, 0xff, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 1, 3})  // chain, mappers and lift, P = 30 > n
	f.Add([]byte{10, 0, 9, 0, 0, 0, 0, 0, 11, 1, 11, 2, 11, 2, 3, 0, 0, 0, 1, 5})     // P = 1, one interval
	f.Add([]byte{23, 3, 50, 3, 0xff, 0xff, 0xff, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2}) // R = n, one tile per nonzero
	f.Fuzz(func(t *testing.T, data []byte) {
		m, p, mode, cuts, script := fuzzTiles(data)
		if m == nil {
			return
		}
		fac := symbolic.Analyze(m)
		ops := model.NewOps(fac)
		sys := strategy.NewSys(fac, ops, nil)
		n := fac.N
		at := func(k int) int32 {
			if len(script) == 0 {
				return int32(k % p)
			}
			return int32(int(script[k%len(script)]) % p)
		}
		check := func(label string, s2 *Schedule2D, ref *refSchedule) {
			t.Helper()
			checkAgainstRef(t, label, ops, sys.ElemWork, s2, ref)
			checkSegmentsMatchWalk(t, label, ops, sys.ElemWork, s2)
			tr := Traffic(ops, s2)
			if sim := traffic.Simulate(s2.Schedule()).Total; tr.TotalFanOut()+tr.TotalFanIn() != sim {
				t.Fatalf("%s: fan-out %d + fan-in %d != Simulate total %d", label, tr.TotalFanOut(), tr.TotalFanIn(), sim)
			}
		}
		switch mode % 3 {
		case 0, 1:
			bounds := []int{0}
			for j := 1; j < n; j++ {
				if cuts>>(j-1)&1 != 0 {
					bounds = append(bounds, j)
				}
			}
			bounds = append(bounds, n)
			rule := func(r, c int) int32 { return at(denseID(r, c)) }
			if mode%3 == 1 {
				rule = func(_, c int) int32 { return at(c) }
			}
			s2, err := fromOwner(fac, sys.ElemWork, p, bounds, rule)
			if err != nil {
				t.Fatal(err)
			}
			check("New", s2, refNew(fac, sys.ElemWork, p, bounds, denseOwners(len(bounds)-1, rule)))
		default:
			budget := 1 + int(mode/3)%16
			bounds := refBounds(sys, p)
			tel, wantTel := &obs.SearchTelemetry{}, &obs.SearchTelemetry{}
			s2, err := Map2D("rect2d", sys, p, strategy.Options{MaxMoves: budget, Search: tel})
			if err != nil {
				t.Fatal(err)
			}
			check("rect2d", s2, refNew(fac, sys.ElemWork, p, bounds, referenceGuardedOwners(sys, p, bounds, budget, wantTel)))
			if !reflect.DeepEqual(tel, wantTel) {
				t.Fatalf("rect2d telemetry %+v, dense descent %+v", tel, wantTel)
			}
			for _, e := range []struct {
				name  string
				owner []int32
			}{{"rect2dlpt", refLPTOwners(sys, p, bounds)}, {"rect2dcyclic", refCyclicOwners(p, bounds)}} {
				s2, err := Map2D(e.name, sys, p, strategy.Options{})
				if err != nil {
					t.Fatal(err)
				}
				check(e.name, s2, refNew(fac, sys.ElemWork, p, bounds, e.owner))
			}
			cols := make([]int32, n)
			for j := range cols {
				cols[j] = at(j)
			}
			sc := sched.ColumnMap(fac, sys.ElemWork, p, cols)
			s2, err = Lift(sys, sc, "fuzz")
			if err != nil {
				t.Fatal(err)
			}
			check("lift", s2, refLift(sys, sc))
		}
	})
}

// Tiles returns the number of non-empty tiles, at most nnz(L).
func (s *Schedule2D) Tiles() int { return len(s.owner) }

// TileOwner returns the processor owning tile (r, c), or -1 when the tile
// holds no factor nonzero (an empty tile has no owner) or lies outside the
// lower triangle 0 <= c <= r < R.
func (s *Schedule2D) TileOwner(r, c int) int32 {
	if c < 0 || c > r || r >= s.R() {
		return -1
	}
	if t, ok := findTile(s.tilePtr, s.tileRow, r, c); ok {
		return s.owner[t]
	}
	return -1
}
