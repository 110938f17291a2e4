package numeric

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// wideSpecials are the right-hand-side components a fuzz byte can pick
// besides ordinary numbers: infinities, two NaNs of distinct payloads,
// both zeros, the extreme subnormals and the extreme finite values.
var wideSpecials = []float64{
	math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000abc),
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, -math.MaxFloat64,
}

// solveWideCase decodes bytes into a small symmetric matrix in natural
// order (n <= 24: n, the edge count, the edges, then one byte per
// off-diagonal value and one per diagonal), its symbolic factor, and a
// panel of SolveWidth right-hand sides (one byte per component: a
// special value, or an ordinary number). Every diagonal dominates its row
// strictly, so Cholesky takes the matrix with each diagonal's magnitude
// and LDLᵀ with its sign, which the diagonal's byte sets: indefinite.
func solveWideCase(data []byte) (chol, ldl *sparse.Matrix, f *symbolic.Factor, panel []float64) {
	if len(data) < 2 {
		return nil, nil, nil, nil
	}
	n := 1 + int(data[0])%24
	nedges := int(data[1]) % 96
	data = data[2:]
	var edges [][2]int
	for ; nedges > 0 && len(data) >= 2; nedges-- {
		edges = append(edges, [2]int{int(data[0]) % n, int(data[1]) % n})
		data = data[2:]
	}
	m, err := sparse.NewPattern(n, edges)
	if err != nil {
		return nil, nil, nil, nil
	}
	k := 0
	next := func() byte {
		k++
		if len(data) == 0 {
			return byte(k * 37)
		}
		b := data[0]
		data = data[1:]
		return b
	}
	m.Val = make([]float64, m.NNZ())
	rowSum := make([]float64, n)
	for j := 0; j < n; j++ {
		for q := m.ColPtr[j] + 1; q < m.ColPtr[j+1]; q++ {
			b := next()
			v := (1 + float64(b%32)) / 16
			if b < 128 {
				v = -v
			}
			m.Val[q] = v
			rowSum[j] += math.Abs(v)
			rowSum[m.RowInd[q]] += math.Abs(v)
		}
	}
	ldl = &sparse.Matrix{N: n, ColPtr: m.ColPtr, RowInd: m.RowInd, Val: append([]float64(nil), m.Val...)}
	for j := 0; j < n; j++ {
		b := next()
		d := rowSum[j] + 1 + float64(b%8)/4
		m.Val[m.ColPtr[j]] = d
		if b >= 128 {
			d = -d
		}
		ldl.Val[m.ColPtr[j]] = d
	}
	panel = make([]float64, n*SolveWidth)
	for i := range panel {
		b := next()
		if int(b) < 2*len(wideSpecials) {
			panel[i] = wideSpecials[int(b)%len(wideSpecials)]
		} else {
			panel[i] = (float64(b) - 160) / 7
		}
	}
	return m, ldl, symbolic.Analyze(m), panel
}

// withPasses runs fn with SolveWide on the passes sub and dot.
func withPasses(sub, dot func([]float64, []int32, []float64, *[8]float64), fn func()) {
	s, d := sub8Pass, dot8Pass
	sub8Pass, dot8Pass = sub, dot
	defer func() { sub8Pass, dot8Pass = s, d }()
	fn()
}

// FuzzSolveWide holds SolveWide on the passes this CPU runs (the AVX2
// assembly where kernel_amd64.go finds it) to SolveWide on the Go passes
// sub8 and dot8, bit for bit, and each of its eight solutions to Solve on
// that right-hand side alone, for both kernels, on fuzzer-written
// patterns (n <= 24) and right-hand sides holding ±Inf, NaN, −0 and
// subnormals.
func FuzzSolveWide(f *testing.F) {
	f.Add([]byte{3, 6, 0, 1, 1, 2, 0, 2, 0, 3, 1, 3, 2, 3, 200, 7, 130, 9, 77, 255, 0, 1, 2, 3})          // dense 4x4
	f.Add([]byte{9, 9, 0, 9, 1, 9, 2, 9, 3, 9, 4, 9, 5, 9, 6, 9, 7, 9, 8, 9})                             // an arrow: nine singles into one column
	f.Add([]byte{11, 0})                                                                                  // diagonal
	f.Add([]byte{0, 0, 4, 5, 6, 7, 8, 9, 10, 11, 12})                                                     // n = 1, specials
	f.Add([]byte{23, 40, 20, 0, 20, 1, 19, 2, 19, 3, 20, 19, 18, 4, 18, 5, 17, 6, 17, 7, 18, 17, 20, 18}) // a forest joined at the top
	f.Fuzz(func(t *testing.T, data []byte) {
		chol, ldl, sf, panel := solveWideCase(data)
		if sf == nil {
			return
		}
		for _, c := range []struct {
			k Kernel
			m *sparse.Matrix
		}{{KernelCholesky, chol}, {KernelLDL, ldl}} {
			val, err := c.k.Factorize(c.m, sf)
			if err != nil {
				t.Fatalf("%v: %v", c.k, err)
			}
			checkSolveWideBits(t, c.k.String(), c.k, sf, val, panel)
		}
	})
}

// checkSolveWideBits runs SolveWide on a copy of panel on this CPU's
// passes and on the Go passes and holds the two to each other and each
// rhs to Solve, bit for bit.
func checkSolveWideBits(t *testing.T, what string, k Kernel, f *symbolic.Factor, val, panel []float64) {
	t.Helper()
	const w = SolveWidth
	got := append([]float64(nil), panel...)
	k.SolveWide(f, val, got)
	want := append([]float64(nil), panel...)
	withPasses(sub8, dot8, func() { k.SolveWide(f, val, want) })
	x := make([]float64, f.N)
	for r := 0; r < w; r++ {
		for i := range x {
			x[i] = panel[i*w+r]
		}
		k.Solve(f, val, x)
		for i := range x {
			g, o, s := math.Float64bits(got[i*w+r]), math.Float64bits(want[i*w+r]), math.Float64bits(x[i])
			if g != o || g != s {
				t.Fatalf("%s: rhs %d x[%d]: %v (%#x), Go passes %v (%#x), Solve %v (%#x)", what, r, i, got[i*w+r], g, want[i*w+r], o, x[i], s)
			}
		}
	}
}

// TestWidePassesBadRow gives the passes a row index outside x — N, a
// negative one and one whose eight-fold product overflows int32 — and
// pins that this CPU's passes and the Go passes both panic, leave x and a
// alike, and write nothing past len(x). Then it does the same through
// SolveWide on a factor whose column 1 names row N.
func TestWidePassesBadRow(t *testing.T) {
	const n, guard = 4, 1e300
	type pass = func([]float64, []int32, []float64, *[8]float64)
	run := func(p pass, bad int32) (x []float64, a [8]float64, panicked bool) {
		buf := make([]float64, (n+2)*8)
		for i := range buf {
			buf[i] = guard
		}
		x = buf[:n*8]
		for i := range x {
			x[i] = float64(i) / 8
		}
		for r := range a {
			a[r] = float64(r) + 0.5
		}
		defer func() {
			panicked = recover() != nil
			for i, v := range buf[n*8:] {
				if v != guard {
					t.Errorf("bad row %d: x[%d] past len(x) written: %v", bad, n*8+i, v)
				}
			}
		}()
		p(x, []int32{0, 2, bad, 1}, []float64{0.25, -3, 7, 1.5}, &a)
		return x, a, false
	}
	for _, bad := range []int32{n, n + 1, -1, 1 << 29, math.MaxInt32, math.MinInt32} {
		for _, c := range []struct {
			name      string
			this, ref pass
		}{{"sub8", sub8Pass, sub8}, {"dot8", dot8Pass, dot8}} {
			x, a, p := run(c.this, bad)
			wx, wa, wp := run(c.ref, bad)
			if !p || !wp {
				t.Fatalf("%s bad row %d: panicked %t, Go pass %t; want both", c.name, bad, p, wp)
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(wx[i]) {
					t.Fatalf("%s bad row %d: x[%d] = %v, Go pass %v", c.name, bad, i, x[i], wx[i])
				}
			}
			if a != wa {
				t.Fatalf("%s bad row %d: a = %v, Go pass %v", c.name, bad, a, wa)
			}
		}
	}

	m, err := sparse.NewPattern(n, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	m.Val = []float64{4, -1, 4, -1, 4, -1, 4}
	f := symbolic.Analyze(m)
	val, err := KernelCholesky.Factorize(m, f)
	if err != nil {
		t.Fatal(err)
	}
	bad := &symbolic.Factor{N: n, ColPtr: f.ColPtr, RowInd: append([]int32(nil), f.RowInd...), Parent: f.Parent}
	bad.RowInd[bad.ColPtr[1]+1] = n // column 1's subdiagonal names row N
	for _, c := range []struct {
		name     string
		sub, dot pass
	}{{"this CPU's passes", sub8Pass, dot8Pass}, {"Go passes", sub8, dot8}} {
		buf := make([]float64, (n+1)*8)
		for i := range buf {
			buf[i] = guard
		}
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			withPasses(c.sub, c.dot, func() { KernelCholesky.SolveWide(bad, val, buf[:n*8]) })
			return false
		}()
		if !panicked {
			t.Errorf("%s: SolveWide on a row index of N did not panic", c.name)
		}
		for i, v := range buf[n*8:] {
			if v != guard {
				t.Errorf("%s: x[%d] past len(x) written: %v", c.name, n*8+i, v)
			}
		}
	}
}

// BenchmarkWidePasses times each 8-wide pass over every column of LAP30's
// factor (MMD order), the Go pass and the one this CPU runs, and reports
// ns per off-diagonal nonzero: EXPERIMENTS.md Wide-1's per-pass table.
func BenchmarkWidePasses(b *testing.B) {
	lap, _, err := gen.ByName("LAP30")
	if err != nil {
		b.Fatal(err)
	}
	m, err := lap.Permute(order.MMD(lap))
	if err != nil {
		b.Fatal(err)
	}
	f := symbolic.Analyze(m)
	val, err := KernelCholesky.Factorize(m, f)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, f.N*SolveWidth)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	type pass = func([]float64, []int32, []float64, *[8]float64)
	for _, c := range []struct {
		name string
		p    pass
	}{{"sub8/go", sub8}, {"sub8/cpu", sub8Pass}, {"dot8/go", dot8}, {"dot8/cpu", dot8Pass}} {
		b.Run(c.name, func(b *testing.B) {
			a := &[8]float64{1e-9, 2e-9, 3e-9, 4e-9, 5e-9, 6e-9, 7e-9, 8e-9}
			for i := 0; i < b.N; i++ {
				for j := 0; j < f.N; j++ {
					base, end := f.ColPtr[j], f.ColPtr[j+1]
					c.p(x, f.RowInd[base+1:end], val[base+1:end], a)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(f.NNZ()-f.N)), "ns/nnz")
		})
	}
}
