package numeric

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// chunkSpecials are values a pass must carry bit for bit: both zeros, both
// infinities, NaNs of three payloads, a subnormal and the extremes.
var chunkSpecials = []float64{
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff8_0000_0000_0bad),
	5e-324, -math.MaxFloat64, math.MaxFloat64, -1.5, 2.25,
}

// chunkValue is a random value, one time in four a special one.
func chunkValue(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return chunkSpecials[rng.Intn(len(chunkSpecials))]
	}
	return rng.NormFloat64()
}

func sameLines(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for q := range want {
		if math.Float64bits(got[q]) != math.Float64bits(want[q]) {
			t.Fatalf("%s: x[%d] = %v (%#x), want %v (%#x)", what, q, got[q], math.Float64bits(got[q]), want[q], math.Float64bits(want[q]))
		}
	}
}

// TestChunkPassesMatchGo: the chunk passes this CPU runs (the AVX2
// assembly where kernel_amd64.go finds it) equal their Go twins bit for
// bit, on every mask and on values holding ±0, ±Inf, NaN payloads and
// subnormals; sub8x4 equals four sub8m calls, sub8m under every lane
// equals sub8, and a lane outside the mask keeps its bits even where its
// multiplier or the source is ±Inf or NaN.
func TestChunkPassesMatchGo(t *testing.T) {
	const rows = 23
	rng := rand.New(rand.NewSource(1))
	for it := 0; it < 300; it++ {
		x0 := make([]float64, 40*8)
		for q := range x0 {
			x0[q] = chunkValue(rng)
		}
		rs := make([]int32, rows)
		for q, i := range rng.Perm(40)[:rows] {
			rs[q] = int32(i)
		}
		var v [4][]float64
		var a [4][8]float64
		for s := range v {
			v[s] = make([]float64, rows)
			for q := range v[s] {
				v[s][q] = chunkValue(rng)
			}
			for r := range a[s] {
				a[s][r] = chunkValue(rng)
			}
		}
		mask := uint8(it)
		if it%5 == 0 {
			mask = 0xff
		}
		run := func(fn func(x []float64)) []float64 {
			x := append([]float64(nil), x0...)
			fn(x)
			return x
		}
		want := run(func(x []float64) {
			for s := range v {
				sub8m(x, rs, v[s], &a[s], mask)
			}
		})
		sameLines(t, "sub8x4 (Go)", run(func(x []float64) { sub8x4(x, rs, v[0], v[1], v[2], v[3], &a, mask) }), want)
		sameLines(t, "sub8x4 (this CPU)", run(func(x []float64) { sub8x4Pass(x, rs, v[0], v[1], v[2], v[3], &a, mask) }), want)
		one := run(func(x []float64) { sub8m(x, rs, v[0], &a[0], mask) })
		sameLines(t, "sub8m (this CPU)", run(func(x []float64) { sub8mPass(x, rs, v[0], &a[0], mask) }), one)
		if mask == 0xff {
			sameLines(t, "sub8 (Go)", run(func(x []float64) { sub8(x, rs, v[0], &a[0]) }), one)
		}
		for q, i := range rs {
			for r := 0; r < 8; r++ {
				if mask>>r&1 == 0 && math.Float64bits(want[int(i)*8+r]) != math.Float64bits(x0[int(i)*8+r]) {
					t.Fatalf("mask %08b: row %d (rs[%d]) lane %d outside the mask changed", mask, i, q, r)
				}
			}
		}
	}
}

// TestChunkPassesBadRow: given a row index outside x the chunk passes of
// this CPU and their Go twins both panic and write nothing past len(x).
// (They may leave x apart: the Go twins walk lane by lane.)
func TestChunkPassesBadRow(t *testing.T) {
	const n, guard = 4, 1e300
	for _, bad := range []int32{n, -1, 1 << 29, math.MaxInt32, math.MinInt32} {
		for _, c := range []struct {
			name      string
			this, ref func(x []float64)
		}{
			{"sub8x4", nil, nil},
			{"sub8x4 masked", nil, nil},
			{"sub8m", nil, nil},
		} {
			rs := []int32{0, 2, bad, 1}
			vs := []float64{0.25, -3, 7, 1.5}
			var a [4][8]float64
			for s := range a {
				for r := range a[s] {
					a[s][r] = float64(8*s+r) + 0.5
				}
			}
			switch c.name {
			case "sub8x4":
				c.this = func(x []float64) { sub8x4Pass(x, rs, vs, vs, vs, vs, &a, 0xff) }
				c.ref = func(x []float64) { sub8x4(x, rs, vs, vs, vs, vs, &a, 0xff) }
			case "sub8x4 masked":
				c.this = func(x []float64) { sub8x4Pass(x, rs, vs, vs, vs, vs, &a, 0x5a) }
				c.ref = func(x []float64) { sub8x4(x, rs, vs, vs, vs, vs, &a, 0x5a) }
			default:
				c.this = func(x []float64) { sub8mPass(x, rs, vs, &a[0], 0x5a) }
				c.ref = func(x []float64) { sub8m(x, rs, vs, &a[0], 0x5a) }
			}
			run := func(fn func([]float64)) (x []float64, panicked bool) {
				buf := make([]float64, (n+2)*8)
				for i := range buf {
					buf[i] = guard
				}
				x = buf[:n*8]
				for i := range x {
					x[i] = float64(i) / 8
				}
				defer func() {
					panicked = recover() != nil
					for i, v := range buf[n*8:] {
						if v != guard {
							t.Errorf("%s bad row %d: x[%d] past len(x) written: %v", c.name, bad, n*8+i, v)
						}
					}
				}()
				fn(x)
				return x, false
			}
			_, p := run(c.this)
			_, wp := run(c.ref)
			if !p || !wp {
				t.Fatalf("%s bad row %d: panicked %t, Go pass %t; want both", c.name, bad, p, wp)
			}
		}
	}
}

// partialLanesCase is a matrix of n = 64 in natural order whose columns 8
// to 63 are dense, one supernode chain, so the serial kernel factors them
// in chunks of eight. Columns 0 to 3 are a chain of sources that meet the
// chunk from column 8 at its rows 10 and 11 only (lanes 2 and 3, four
// sources of one run), column 4 meets it at row 12 only (lane 4, a source
// on its own) and column 5 at every row (all lanes). A(50, 8) is −0 and
// L(50, c) is negative for c = 0 to 4, none of which holds row 8: lane 0
// of row 50 must come out of their passes as −0, and a zero multiplier in
// place of the mask would turn it into +0.
func partialLanesCase(t *testing.T) *sparse.Matrix {
	const n = 64
	var is, js []int
	var vs []float64
	add := func(i, j int, v float64) { is, js, vs = append(is, i), append(js, j), append(vs, v) }
	for j := 0; j < n; j++ {
		add(j, j, 4*n)
	}
	for c := 0; c < 4; c++ {
		for i := c + 1; i < 4; i++ {
			add(i, c, -1)
		}
		add(10, c, 0.5)
		add(11, c, -0.75)
		add(50, c, -1)
	}
	add(12, 4, 1.25)
	add(50, 4, -2)
	for i := 8; i < 16; i++ {
		add(i, 5, 0.5-float64(i%3)/4)
	}
	add(60, 5, -1)
	for j := 8; j < n; j++ {
		for i := j + 1; i < n; i++ {
			v := -1 / float64(1+(i*7+j)%5)
			if i == 50 && j == 8 {
				v = math.Copysign(0, -1)
			}
			add(i, j, v)
		}
	}
	m, err := sparse.FromTriplets(n, is, js, vs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestChunkPartialLanesKeepBits: on partialLanesCase both kernels factor
// through a chunk that meets a four-source range holding two lanes, a
// single source holding one and a source holding all, and give the
// oracle's factor bit for bit, the −0 of L(50, 8) included.
func TestChunkPartialLanesKeepBits(t *testing.T) {
	m := partialLanesCase(t)
	f := symbolic.Analyze(m)
	if w := chunkWidth(f, 8); w != chunkLanes || f.ColLen(8) < chunkRows {
		t.Fatalf("column 8: chain of %d, %d rows: not a chunk", w, f.ColLen(8))
	}
	src := chunkSources(f.Rows(), 8, chunkLanes, nil)
	want := []srcRange{{0, 3, 3, 0b1100}, {4, 4, 2, 0b10000}, {5, 5, 9, 0xff}}
	if len(src) != len(want) {
		t.Fatalf("chunk 8 sources %v, want %v", src, want)
	}
	for x := range want {
		if src[x] != want[x] {
			t.Fatalf("chunk 8 sources %v, want %v", src, want)
		}
	}
	for _, k := range []Kernel{KernelCholesky, KernelLDL} {
		ref, bad, err := refFactorize(k, m, f)
		if err != nil || bad >= 0 {
			t.Fatalf("%v: oracle failed: column %d, %v", k, bad, err)
		}
		if q := f.ColPtr[8] + 50 - 8; math.Float64bits(ref[q]) != math.Float64bits(math.Copysign(0, -1)) {
			t.Fatalf("%v: the oracle's L(50, 8) is %v, want −0", k, ref[q])
		}
		got, err := k.Factorize(m, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(got, ref); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}

// TestChunkGoPassesBitwiseRef: the chunk path on the Go passes, the only
// path off amd64, gives the oracle's factor too, and so does the chunk
// path taken by every chain the width rule admits, however short.
func TestChunkGoPassesBitwiseRef(t *testing.T) {
	s8, x4, sm := sub8Pass, sub8x4Pass, sub8mPass
	defer func() { sub8Pass, sub8x4Pass, sub8mPass = s8, x4, sm }()
	g := gen.Grid9(40, 40)
	var cases []*symbolic.Factor
	var ms []*sparse.Matrix
	for _, perm := range [][]int{order.MMD(g), order.Natural(g.N)} {
		pm, err := g.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		ms, cases = append(ms, pm), append(cases, symbolic.Analyze(pm))
	}
	for _, passes := range []string{"this CPU", "Go"} {
		if passes == "Go" {
			sub8Pass, sub8x4Pass, sub8mPass = sub8, sub8x4, sub8m
		}
		for c, f := range cases {
			for _, k := range []Kernel{KernelCholesky, KernelLDL} {
				m := ms[c]
				if k == KernelLDL {
					m = withIndefiniteDiagonal(m)
				}
				want, bad, err := refFactorize(k, m, f)
				if err != nil || bad >= 0 {
					t.Fatalf("oracle failed: column %d, %v", bad, err)
				}
				for _, run := range []struct {
					rows      int
					factorize func(Kernel, *sparse.Matrix, *symbolic.Factor) ([]float64, error)
				}{{0, FactorizeEveryChain}, {chunkRows, Kernel.Factorize}} {
					got, err := run.factorize(k, m, f)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameBits(got, want); err != nil {
						t.Fatalf("%s passes, case %d, %v, chunks from %d rows: %v", passes, c, k, run.rows, err)
					}
				}
			}
		}
	}
}

// Pass kinds of the serial kernel, for chunkPassCounts.
const (
	pass4x8      = iota // four sources holding every lane, sub8x4
	pass1x8             // one source holding every lane, sub8
	passMasked          // sources holding some lanes, sub8x4 or sub8m under a mask
	passTriangle        // a chunk's own columns applied to its later lanes
	passColumn          // column steps
	passKinds
)

// chunkPassCounts walks the serial list Factorize runs without any
// arithmetic — chunkSources and the dispatch of chunk over its chunk
// steps — and counts each pass kind's live lane-updates: element (i, j+r)
// taking source c, i >= j+r, with L(j+r, c) in the structure.
func chunkPassCounts(f *symbolic.Factor) (n [passKinds]int64) {
	ri := f.Rows()
	var src []srcRange
	for _, st := range SerialSteps(f) {
		j, w := int(st.J), int(st.W)
		if w == 1 {
			for x := ri.RunPtr[j]; x < ri.RunPtr[j+1]; x++ {
				n[passColumn] += int64(ri.RunLen[x]) * int64(ri.Tail[x])
			}
			continue
		}
		all := uint8(1<<w - 1)
		src = chunkSources(ri, j, w, src[:0])
		for _, s := range src {
			// The lanes of the mask are the first rows of the tail, in
			// lane order: the one of rank k is live in n − k of them.
			var live int64
			for k := range bits.OnesCount8(s.mask) {
				live += int64(s.n) - int64(k)
			}
			for c := s.c0; c <= s.c1; {
				kind, m := pass1x8, int32(1)
				switch {
				case c+3 <= s.c1:
					kind, m = pass4x8, 4
					if s.mask != all {
						kind = passMasked
					}
				case s.mask != all:
					kind = passMasked
				}
				n[kind] += int64(m) * live
				c += m
			}
		}
		for r := 0; r < w; r++ {
			for r2 := r + 1; r2 < w; r2++ {
				n[passTriangle] += int64(f.ColLen(j+r) - (r2 - r))
			}
		}
	}
	return n
}

// refMultiplySubtracts is the number of multiply-subtracts refFactorize
// makes: every source c of every row j, once per row of c from j down.
func refMultiplySubtracts(f *symbolic.Factor) (n int64) {
	colOf := f.ColIndex()
	for _, ps := range refRowPos(f) {
		for _, p := range ps {
			n += int64(f.ColPtr[colOf[p]+1] - p)
		}
	}
	return n
}

// TestChunkPassCounts: the live lane-updates of the serial kernel's pass
// kinds sum to the oracle's multiply-subtracts exactly on every sweep
// case — no update dropped, none made twice — and on Grid9(120,120) in
// MMD order, the refactor workload's pattern, the split is pinned (-v
// logs each case's shares: EXPERIMENTS.md Chunk-1).
func TestChunkPassCounts(t *testing.T) {
	cases := sweepCases(t)
	if testing.Short() || raceBuild {
		g := gen.Grid9(120, 120)
		pm, err := g.Permute(order.MMD(g))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, sweepCase{"GRID9_120/mmd", pm, symbolic.Analyze(pm)})
	}
	chunked := false
	for _, c := range cases {
		n := chunkPassCounts(c.f)
		var sum int64
		for _, v := range n {
			sum += v
		}
		if want := refMultiplySubtracts(c.f); sum != want {
			t.Fatalf("%s: passes make %d lane-updates %v, the oracle %d multiply-subtracts", c.name, sum, n, want)
		}
		chunked = chunked || n[passColumn] < sum
		pct := func(k int) float64 { return 100 * float64(n[k]) / float64(max(sum, 1)) }
		t.Logf("%-26s %11d: 4x8 %5.1f %%, 1x8 %5.1f %%, masked %5.1f %%, triangle %5.1f %%, column %5.1f %%",
			c.name, sum, pct(pass4x8), pct(pass1x8), pct(passMasked), pct(passTriangle), pct(passColumn))
		if c.name == "GRID9_120/mmd" {
			if want := [passKinds]int64{22054880, 1252090, 1716360, 1223903, 1490791}; n != want {
				t.Errorf("%s: split %v, want %v", c.name, n, want)
			}
		}
	}
	if !chunked {
		t.Fatal("no sweep case ran a chunk")
	}
}
