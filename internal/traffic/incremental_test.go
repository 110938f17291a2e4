package traffic

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// oracleCheck drives one Incremental and holds it to its contract: after
// every move the total is Simulate's on the element owners the moves so
// far say, the (element, processor) pairs the table counts a reader for
// are the element-list oracle's, entry for entry (refIncremental, on its
// own copy of the owners, moving the group's elements; it counts reads,
// the table counts reading groups, and only count > 0 reaches a total),
// the counter's own element owners are what the moves say, and the
// schedule it was built from is left as it was.
type oracleCheck struct {
	t     testing.TB
	name  string
	ops   *model.Ops
	s     *sched.Schedule
	start []int32   // the element owners of s
	elems [][]int32 // the elements of each group
	inc   *Incremental
	ref   *refIncremental
	want  []int32 // element owners replayed from the moves alone
	n     int     // moves made
}

func newOracleCheck(t testing.TB, name string, ops *model.Ops, s *sched.Schedule, boxes []Box) *oracleCheck {
	start := slices.Clone(refElemProc(s))
	c := &oracleCheck{t: t, name: name, ops: ops, s: s, start: start, want: slices.Clone(start)}
	for _, b := range boxes {
		c.elems = append(c.elems, boxElems(ops.F, b))
	}
	c.ref = newRefIncremental(ops, &sched.Schedule{P: s.P, F: s.F, ElemProc: slices.Clone(start)})
	c.inc = NewIncremental(NewGroups(ops, boxes), s)
	c.verify(c.inc.Total(), "build")
	return c
}

func (c *oracleCheck) move(g int, dst int32, what string) int64 {
	c.t.Helper()
	c.n++
	got := c.inc.Move(g, dst)
	c.ref.Move(c.elems[g], dst)
	for _, q := range c.elems[g] {
		c.want[q] = dst
	}
	c.verify(got, what)
	return got
}

func (c *oracleCheck) verify(got int64, what string) {
	c.t.Helper()
	if total := c.inc.Total(); got != total {
		c.t.Fatalf("%s move %d (%s): Move returned %d, Total() %d", c.name, c.n, what, got, total)
	}
	if want := Simulate(&sched.Schedule{P: c.s.P, F: c.s.F, ElemProc: c.want}).Total; got != want {
		c.t.Fatalf("%s move %d (%s): incremental total %d, Simulate %d", c.name, c.n, what, got, want)
	}
	if got != c.ref.total {
		c.t.Fatalf("%s move %d (%s): group total %d, element-list oracle %d", c.name, c.n, what, got, c.ref.total)
	}
	for e, n := range c.inc.count {
		if (n > 0) != (c.ref.count[e] > 0) {
			c.t.Fatalf("%s move %d (%s): entry %d read = %v, element-list oracle %v", c.name, c.n, what, e, n > 0, c.ref.count[e] > 0)
		}
	}
	for q, w := range c.want {
		if c.inc.elem[q] != w || c.ref.s.ElemProc[q] != w {
			c.t.Fatalf("%s move %d (%s): element %d on %d (oracle %d), the moves say %d", c.name, c.n, what, q, c.inc.elem[q], c.ref.s.ElemProc[q], w)
		}
	}
	if !slices.Equal(refElemProc(c.s), c.start) {
		c.t.Fatalf("%s move %d (%s): the counter wrote the schedule it was built from", c.name, c.n, what)
	}
}

// boxElems lists the factor positions inside box b — a group's elements
// (none when the box holds no nonzero).
func boxElems(f *symbolic.Factor, b Box) []int32 {
	var out []int32
	for j := b.Col0; j < b.Col1; j++ {
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			if i := int(f.RowInd[q]); i >= b.Row0 && i < b.Row1 {
				out = append(out, int32(q))
			}
		}
	}
	return out
}

// The four group families the searches and the tests declare.

// tileBoxes is every lower-triangle tile of the intervals of bounds, the
// empty ones included.
func tileBoxes(bounds []int) []Box {
	var out []Box
	for c := 0; c+1 < len(bounds); c++ {
		for r := c; r+1 < len(bounds); r++ {
			out = append(out, Box{bounds[c], bounds[c+1], bounds[r], bounds[r+1]})
		}
	}
	return out
}

// columnBoxes is column j with its rows, j..n.
func columnBoxes(n int) []Box {
	out := make([]Box, n)
	for j := range out {
		out[j] = Box{j, j + 1, j, n}
	}
	return out
}

// unitBoxes is the extents of every unit block.
func unitBoxes(part *core.Partition) []Box {
	out := make([]Box, len(part.Units))
	for i, u := range part.Units {
		out[i] = Box{u.ColLo, u.ColHi + 1, u.RowLo, u.RowHi + 1}
	}
	return out
}

// elementBoxes is one box per factor element.
func elementBoxes(f *symbolic.Factor) []Box {
	out := make([]Box, 0, f.NNZ())
	for j := 0; j < f.N; j++ {
		for _, i := range f.Col(j) {
			out = append(out, Box{j, j + 1, int(i), int(i) + 1})
		}
	}
	return out
}

// randomBounds cuts [0, n) at random points.
func randomBounds(rng *rand.Rand, n int) []int {
	bounds := []int{0}
	for x := 1; x < n; x++ {
		if rng.Intn(4) == 0 {
			bounds = append(bounds, x)
		}
	}
	return append(bounds, n)
}

// groupSchedule gives every group one owner, owner(g), and each element
// its group's.
func groupSchedule(f *symbolic.Factor, p int, boxes []Box, owner func(g int) int32) *sched.Schedule {
	s := &sched.Schedule{P: p, F: f, ElemProc: make([]int32, f.NNZ())}
	for g, b := range boxes {
		for _, q := range boxElems(f, b) {
			s.ElemProc[q] = owner(g)
		}
	}
	return s
}

// randomMoves makes random group moves plus the edge cases: a move to the
// current owner, an immediate revert.
func (c *oracleCheck) randomMoves(rng *rand.Rand, moves int) {
	c.t.Helper()
	p := c.s.P
	for k := 0; k < moves; k++ {
		g, dst := rng.Intn(len(c.elems)), int32(rng.Intn(p))
		switch kind := rng.Intn(4); {
		case kind == 0 && len(c.elems[g]) > 0:
			// The group's own owner: nothing may change.
			before := c.inc.Total()
			if got := c.move(g, c.want[c.elems[g][0]], "current owner"); got != before {
				c.t.Fatalf("%s: a move to the current owner changed the total %d -> %d", c.name, before, got)
			}
		case kind == 1 && len(c.elems[g]) > 0:
			// A trial and its rejection.
			src := c.want[c.elems[g][0]]
			before := c.inc.Total()
			c.move(g, dst, "trial")
			if got := c.move(g, src, "revert"); got != before {
				c.t.Fatalf("%s: revert left total %d, was %d before the trial", c.name, got, before)
			}
		default:
			c.move(g, dst, "move")
		}
	}
}

// checkFamilies runs every group family over one analysis at P = p: tiles
// of random bounds under random owners, columns from a wrap start, unit
// blocks from a block start and single elements from a wrap start.
func checkFamilies(t *testing.T, name string, ops *model.Ops, part *core.Partition, ew []uint32, p, moves int, rng *rand.Rand) {
	f := ops.F
	tiles := tileBoxes(randomBounds(rng, f.N))
	tileOwner := make([]int32, len(tiles))
	for g := range tileOwner {
		tileOwner[g] = int32(rng.Intn(p))
	}
	newOracleCheck(t, name+"/tiles", ops, groupSchedule(f, p, tiles, func(g int) int32 { return tileOwner[g] }), tiles).randomMoves(rng, moves)
	newOracleCheck(t, name+"/columns", ops, sched.WrapMap(f, ew, p), columnBoxes(f.N)).randomMoves(rng, moves)
	newOracleCheck(t, name+"/units", ops, sched.BlockMap(part, p), unitBoxes(part)).randomMoves(rng, moves)
	newOracleCheck(t, name+"/elements", ops, sched.WrapMap(f, ew, p), elementBoxes(f)).randomMoves(rng, moves)
}

// TestIncrementalMatchesSimulateSuite: on every suite matrix, at narrow,
// one-word, two-word and wide processor counts, every group move of every
// family leaves the counter equal to a fresh simulation and to the
// element-list oracle.
func TestIncrementalMatchesSimulateSuite(t *testing.T) {
	procs := []int{1, 2, 16, 64, 65, 100}
	moves := 5
	if testing.Short() {
		procs, moves = []int{2, 65}, 3
	}
	for mi, tm := range gen.Suite() {
		ops, part, ew := pipeline(tm.Build(), 4, 4)
		for _, p := range procs {
			checkFamilies(t, tm.Name, ops, part, ew, p, moves, rand.New(rand.NewSource(int64(1000*mi+p))))
		}
	}
}

// TestIncrementalMatchesSimulateRandom: seeded random symmetric patterns,
// including more processors than columns.
func TestIncrementalMatchesSimulateRandom(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		n := 12 + int(seed)*3
		ops, part, ew := pipeline(gen.Random(n, 1.3, seed), 3, 3)
		for _, p := range []int{1, 2, 16, 64, 65, 100, n + 1, 2 * n} {
			checkFamilies(t, "random", ops, part, ew, p, 25, rand.New(rand.NewSource(seed<<8+int64(p))))
		}
	}
}

// TestIncrementalRelaxedPartition: a relaxed partition pads the factor, so
// its schedule covers the partition's factor and must be scored over that
// factor's ops — the pair strategy.Traffic passes, and what refine's
// traffic objective hands the counter with the units as groups.
func TestIncrementalRelaxedPartition(t *testing.T) {
	padded := false
	for _, tm := range gen.Suite() {
		ops, _, _ := pipeline(tm.Build(), 4, 4)
		part := core.NewPartition(ops.F, core.Options{RelaxZeros: 0.3})
		if part.F == ops.F {
			continue
		}
		padded = true
		pops := model.NewOps(part.F)
		for _, p := range []int{2, 16, 65} {
			rng := rand.New(rand.NewSource(int64(p)))
			newOracleCheck(t, tm.Name+"/relaxed", pops, sched.BlockMap(part, p), unitBoxes(part)).randomMoves(rng, 12)
		}
	}
	if !padded {
		t.Fatal("RelaxZeros 0.3 padded no suite factor; the relaxed case went untested")
	}
}

func TestIncrementalPanics(t *testing.T) {
	ops, _, ew := pipeline(gen.Grid9(5, 5), 4, 4)
	n := ops.F.N
	s := sched.WrapMap(ops.F, ew, 3)
	cols := columnBoxes(n)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	groups := NewGroups(ops, cols)
	small, _, smallWork := pipeline(gen.Grid9(4, 4), 4, 4)
	mustPanic("schedule over another factor", func() { NewIncremental(groups, sched.WrapMap(small.F, smallWork, 3)) })
	mustPanic("P = 0", func() { NewIncremental(groups, &sched.Schedule{F: s.F, ColProc: s.ColProc}) })
	mustPanic("box above its columns", func() {
		NewGroups(ops, append(slices.Clone(cols[1:]), Box{0, 1, 0, 1}, Box{1, 2, 0, n}))
	})
	mustPanic("box straddling its columns", func() {
		NewGroups(ops, append(slices.Clone(cols[:n-2]), Box{n - 2, n, n - 1, n}))
	})
	mustPanic("element left out", func() { NewGroups(ops, cols[1:]) })
	mustPanic("element held twice", func() { NewGroups(ops, append(slices.Clone(cols), Box{0, 1, 0, 1})) })
	mustPanic("element held twice across strips", func() {
		NewGroups(ops, append(slices.Clone(cols[2:]), Box{0, 2, 0, n}, Box{0, 1, 0, n}))
	})
	mustPanic("group with two owners", func() { NewIncremental(NewGroups(ops, tileBoxes([]int{0, n})), s) })
	inc := NewIncremental(groups, s)
	mustPanic("dst = P", func() { inc.Move(0, 3) })
	mustPanic("dst < 0", func() { inc.Move(0, -1) })
}

// fuzzCase decodes bytes into a small symmetric pattern (n <= 24, natural
// order), a processor count that may exceed both n and 64, and a move
// script.
func fuzzCase(data []byte) (m *sparse.Matrix, p int, script []byte) {
	if len(data) < 3 {
		return nil, 0, nil
	}
	n := 2 + int(data[0])%23
	p = 1 + int(data[1])%100
	nedges := int(data[2]) % 64
	data = data[3:]
	var edges [][2]int
	for ; nedges > 0 && len(data) >= 2; nedges-- {
		edges = append(edges, [2]int{int(data[0]) % n, int(data[1]) % n})
		data = data[2:]
	}
	m, err := sparse.NewPattern(n, edges)
	if err != nil {
		return nil, 0, nil
	}
	return m, p, data
}

// FuzzIncrementalTraffic holds the counter to Simulate and to the
// element-list oracle after every move of a fuzzer-written script on a
// fuzzer-written pattern. The script's first byte picks the groups: tiles
// of bounds cut where the next three bytes have a bit set, columns, unit
// blocks of a grain the next byte sets, or single elements. Then each
// 3-byte record (hi, lo, dst) moves group (hi<<8|lo) mod the group count.
func FuzzIncrementalTraffic(f *testing.F) {
	f.Add([]byte{3, 2, 3, 0, 1, 1, 2, 0, 2, 0, 1, 0, 1, 1, 2, 2, 0})           // dense 4x4, P = 3
	f.Add([]byte{22, 69, 40, 0, 5, 5, 9, 9, 1, 1, 20, 3, 7, 0, 4, 1, 65})      // P = 70 > 64 > n
	f.Add([]byte{5, 29, 6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 1, 3, 0, 25})   // chain, P = 30 > n
	f.Add([]byte{10, 0, 9, 0, 11, 1, 11, 2, 11, 2, 3, 0, 0, 0, 1, 5, 5, 0, 2}) // P = 1
	f.Fuzz(func(t *testing.T, data []byte) {
		m, p, script := fuzzCase(data)
		if m == nil {
			return
		}
		fac := symbolic.Analyze(m)
		ops := model.NewOps(fac)
		wrap := sched.WrapMap(fac, model.Work(ops), p)
		byte0 := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		var c *oracleCheck
		switch byte0() % 4 {
		case 0:
			bits := byte0() | byte0()<<8 | byte0()<<16
			bounds := []int{0}
			for x := 1; x < fac.N; x++ {
				if bits>>(x-1)&1 == 1 {
					bounds = append(bounds, x)
				}
			}
			tiles := tileBoxes(append(bounds, fac.N))
			c = newOracleCheck(t, "tiles", ops, groupSchedule(fac, p, tiles, func(g int) int32 { return int32(g % p) }), tiles)
		case 1:
			c = newOracleCheck(t, "columns", ops, wrap, columnBoxes(fac.N))
		case 2:
			g := byte0()
			part := core.NewPartition(fac, core.Options{Grain: 1 + g%8, MinClusterWidth: 1 + g/8%4})
			c = newOracleCheck(t, "units", ops, sched.BlockMap(part, p), unitBoxes(part))
		default:
			c = newOracleCheck(t, "elements", ops, wrap, elementBoxes(fac))
		}
		for ; len(script) >= 3; script = script[3:] {
			c.move((int(script[0])<<8|int(script[1]))%len(c.elems), int32(int(script[2])%p), "move")
		}
	})
}
