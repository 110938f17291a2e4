package traffic

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// oracleCheck drives one Incremental and holds it to its contract: after
// every move the total is Simulate's on the schedule as it now stands,
// and the schedule's ElemProc is what the moves so far say.
type oracleCheck struct {
	t    testing.TB
	name string
	ops  *model.Ops
	s    *sched.Schedule
	inc  *Incremental
	want []int32 // ElemProc replayed from the moves alone
	n    int     // moves made
}

func newOracleCheck(t testing.TB, name string, ops *model.Ops, s *sched.Schedule) *oracleCheck {
	c := &oracleCheck{t: t, name: name, ops: ops, s: s, want: append([]int32(nil), s.ElemProc...)}
	c.inc = NewIncremental(ops, s)
	c.verify(c.inc.Total(), "build")
	return c
}

func (c *oracleCheck) move(elems []int32, dst int32, what string) int64 {
	c.t.Helper()
	c.n++
	got := c.inc.Move(elems, dst)
	for _, q := range elems {
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
	if want := Simulate(c.ops, c.s).Total; got != want {
		c.t.Fatalf("%s move %d (%s): incremental total %d, Simulate %d", c.name, c.n, what, got, want)
	}
	for q, w := range c.want {
		if c.s.ElemProc[q] != w {
			c.t.Fatalf("%s move %d (%s): ElemProc[%d] = %d, the moves say %d", c.name, c.n, what, q, c.s.ElemProc[q], w)
		}
	}
}

// tileElems lists the factor positions with row in [r0, r1) and column in
// [c0, c1) — the element set of a 2D tile (empty when the box holds no
// nonzero).
func tileElems(f *symbolic.Factor, r0, r1, c0, c1 int) []int32 {
	var out []int32
	for j := c0; j < c1 && j < f.N; j++ {
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			if i := f.RowInd[q]; i >= r0 && i < r1 {
				out = append(out, int32(q))
			}
		}
	}
	return out
}

// randomMoves makes moves random moves of every shape the searches use —
// tiles, whole columns, unit blocks when units is non-nil — plus the edge
// cases: a move to the current owner, an empty set, an immediate revert.
func (c *oracleCheck) randomMoves(rng *rand.Rand, moves int, units [][]int32) {
	c.t.Helper()
	f, p := c.ops.F, c.s.P
	for k := 0; k < moves; k++ {
		dst := int32(rng.Intn(p))
		switch kind := rng.Intn(6); {
		case kind == 0:
			r0, c0 := rng.Intn(f.N), rng.Intn(f.N)
			c.move(tileElems(f, r0, r0+1+rng.Intn(f.N/3+1), c0, c0+1+rng.Intn(f.N/3+1)), dst, "tile")
		case kind == 1:
			j := rng.Intn(f.N)
			c.move(tileElems(f, 0, f.N, j, j+1), dst, "column")
		case kind == 2 && units != nil:
			c.move(units[rng.Intn(len(units))], dst, "unit block")
		case kind == 3:
			c.move(nil, dst, "empty set")
		case kind == 4:
			// Every element already on its destination: nothing may change.
			q := int32(rng.Intn(f.NNZ()))
			before := c.inc.Total()
			if got := c.move([]int32{q, q}, c.s.ElemProc[q], "current owner"); got != before {
				c.t.Fatalf("%s: a move to the current owner changed the total %d -> %d", c.name, before, got)
			}
		default:
			// A trial and its rejection: one column out and back.
			j := rng.Intn(f.N)
			col := tileElems(f, 0, f.N, j, j+1)
			src := c.s.ElemProc[col[0]]
			c.move(col, src, "column gather")
			before := c.inc.Total()
			c.move(col, dst, "trial")
			if got := c.move(col, src, "revert"); got != before {
				c.t.Fatalf("%s: revert left total %d, was %d before the trial", c.name, got, before)
			}
		}
	}
}

func unitElems(part *core.Partition) [][]int32 {
	units := make([][]int32, len(part.Units))
	for q, u := range part.ElemUnit {
		units[u] = append(units[u], int32(q))
	}
	return units
}

// TestIncrementalMatchesSimulateSuite: on every suite matrix, from a wrap
// and from a block start, at narrow, one-word, two-word and wide processor
// counts, every move leaves the oracle equal to a fresh simulation.
func TestIncrementalMatchesSimulateSuite(t *testing.T) {
	procs := []int{1, 2, 16, 64, 65, 100}
	moves := 10
	if testing.Short() {
		procs, moves = []int{2, 65}, 5
	}
	for mi, tm := range gen.Suite() {
		ops, part, ew := pipeline(tm.Build(), 4, 4)
		units := unitElems(part)
		for _, p := range procs {
			rng := rand.New(rand.NewSource(int64(1000*mi + p)))
			newOracleCheck(t, tm.Name+"/wrap", ops, sched.WrapMap(ops.F, ew, p)).randomMoves(rng, moves, nil)
			newOracleCheck(t, tm.Name+"/block", ops, sched.BlockMap(part, p)).randomMoves(rng, moves, units)
		}
	}
}

// TestIncrementalMatchesSimulateRandom: seeded random symmetric patterns,
// including more processors than columns.
func TestIncrementalMatchesSimulateRandom(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		n := 12 + int(seed)*3
		ops, part, ew := pipeline(gen.Random(n, 1.3, seed), 3, 3)
		units := unitElems(part)
		for _, p := range []int{1, 2, 16, 64, 65, 100, n + 1, 2 * n} {
			rng := rand.New(rand.NewSource(seed<<8 + int64(p)))
			newOracleCheck(t, "random/wrap", ops, sched.WrapMap(ops.F, ew, p)).randomMoves(rng, 25, nil)
			newOracleCheck(t, "random/block", ops, sched.BlockMap(part, p)).randomMoves(rng, 25, units)
		}
	}
}

// TestIncrementalRelaxedPartition: a relaxed partition pads the factor, so
// its schedule covers the partition's factor and must be scored over that
// factor's ops — the pair strategy.Traffic passes, and what refine's
// traffic objective hands the oracle.
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
		units := unitElems(part)
		for _, p := range []int{2, 16, 65} {
			rng := rand.New(rand.NewSource(int64(p)))
			newOracleCheck(t, tm.Name+"/relaxed", pops, sched.BlockMap(part, p)).randomMoves(rng, 12, units)
		}
	}
	if !padded {
		t.Fatal("RelaxZeros 0.3 padded no suite factor; the relaxed case went untested")
	}
}

func TestIncrementalPanics(t *testing.T) {
	ops, _, ew := pipeline(gen.Grid9(5, 5), 4, 4)
	s := sched.WrapMap(ops.F, ew, 3)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("short schedule", func() {
		NewIncremental(ops, &sched.Schedule{P: 3, ElemProc: s.ElemProc[:len(s.ElemProc)-1]})
	})
	mustPanic("P = 0", func() { NewIncremental(ops, &sched.Schedule{ElemProc: s.ElemProc}) })
	inc := NewIncremental(ops, s)
	mustPanic("dst = P", func() { inc.Move([]int32{0}, 3) })
	mustPanic("dst < 0", func() { inc.Move([]int32{0}, -1) })
}

// fuzzCase decodes bytes into a small symmetric pattern (n <= 24, natural
// order), a processor count that may exceed both n and 64, and a move
// script of 4-byte records (kind, x, y, dst).
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

// FuzzIncrementalTraffic holds the oracle to Simulate after every move of
// a fuzzer-written script on a fuzzer-written pattern.
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
		c := newOracleCheck(t, "fuzz", ops, sched.WrapMap(fac, model.ElementWork(ops), p))
		n := fac.N
		for ; len(script) >= 4; script = script[4:] {
			kind, x, y, dst := script[0], int(script[1]), int(script[2]), int32(int(script[3])%p)
			switch kind % 3 {
			case 0:
				c.move(tileElems(fac, 0, n, x%n, x%n+1), dst, "column")
			case 1:
				size := 1 + int(kind/3)%5
				c.move(tileElems(fac, x%n, x%n+size, y%n, y%n+size), dst, "tile")
			default:
				c.move([]int32{int32((x<<8 | y) % fac.NNZ())}, dst, "element")
			}
		}
	})
}
