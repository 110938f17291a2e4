package numeric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/symbolic"
)

// refLower is the definition of the forward sweep's bits: the whole-column
// loop Kernel.Solve ran before Forward, kept verbatim. It overwrites x,
// holding b, with the solution of L·y = b. LDLᵀ's L has a unit diagonal:
// the diagonal positions of val hold D.
func refLower(k Kernel, f *symbolic.Factor, val, x []float64) {
	for j := 0; j < f.N; j++ {
		base, end := f.ColPtr[j], f.ColPtr[j+1]
		if k != KernelLDL {
			x[j] /= val[base]
		}
		xj := x[j]
		rs, vs := f.RowInd[base+1:end], val[base+1:end]
		for q, i := range rs {
			x[i] -= vs[q] * xj
		}
	}
}

// refUpper is the backward sweep's: it overwrites x, holding y, with the
// solution of Lᵀ·x = y, or for LDLᵀ of Lᵀ·x = D⁻¹·y.
func refUpper(k Kernel, f *symbolic.Factor, val, x []float64) {
	for j := f.N - 1; j >= 0; j-- {
		base, end := f.ColPtr[j], f.ColPtr[j+1]
		sum := x[j]
		if k == KernelLDL {
			sum /= val[base]
		}
		rs, vs := f.RowInd[base+1:end], val[base+1:end]
		for q, i := range rs {
			sum -= vs[q] * x[i]
		}
		if k != KernelLDL {
			sum /= val[base]
		}
		x[j] = sum
	}
}

// finiteSpecials are the special components that leave the rest of a
// solution finite: both zeros and the extreme subnormals.
var finiteSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff),
}

// sweepRHS draws a right-hand side of length n: ordinary numbers of
// assorted magnitudes, with about one component in eight one of specials.
func sweepRHS(rng *rand.Rand, n int, specials []float64) []float64 {
	b := make([]float64, n)
	for i := range b {
		if rng.Intn(8) == 0 {
			b[i] = specials[rng.Intn(len(specials))]
		} else {
			b[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(41)-20)
		}
	}
	return b
}

// forwardCuts runs the forward sweep on x column by column through
// Forward and holds each column, applied whole, to the same column cut in
// two at every interior position c: Forward(j, ColPtr[j], c) then
// Forward(j, c, ColPtr[j+1]), from the same state, must leave every
// component the column touches with the whole call's bits.
func forwardCuts(k Kernel, f *symbolic.Factor, val, x []float64) error {
	var save, want, got []float64
	gather := func(dst []float64, rows []int32) []float64 {
		dst = dst[:0]
		for _, i := range rows {
			dst = append(dst, x[i])
		}
		return dst
	}
	scatter := func(src []float64, rows []int32) {
		for t, i := range rows {
			x[i] = src[t]
		}
	}
	for j := 0; j < f.N; j++ {
		lo, hi := f.ColPtr[j], f.ColPtr[j+1]
		rows := f.RowInd[lo:hi] // rows[0] is j
		save = gather(save, rows)
		k.Forward(f, val, x, j, lo, hi)
		want = gather(want, rows)
		for c := lo + 1; c < hi; c++ {
			scatter(save, rows)
			k.Forward(f, val, x, j, lo, c)
			k.Forward(f, val, x, j, c, hi)
			if got = gather(got, rows); sameBits(got, want) != nil {
				return fmt.Errorf("column %d cut at %d: %v", j, c, sameBits(got, want))
			}
		}
		scatter(want, rows)
	}
	return nil
}

// TestSolveMatchesSweepOracle pins the one sweep body: Kernel.Solve and
// the Forward loop give refLower/refUpper's bits, for both kernels (LDLᵀ
// also on an indefinite matrix), on every structure of the oracle sweep
// (the suite's under -race) and on random patterns. The first right-hand
// side holds ±0 and subnormals, which keep the solution finite, and its
// Forward loop cuts every column in two at every interior position; the
// second also holds ±Inf, NaN and ±MaxFloat64. The parallel sweep reaches the same bodies, so
// exec's bit-identity tests alone could not catch a wrong one.
func TestSolveMatchesSweepOracle(t *testing.T) {
	cases := sweepCases(t)
	if raceBuild {
		cases = cases[:6*len(gen.Suite())] // the suite: three orders, each also relaxed
	}
	for seed := int64(1); seed <= 12; seed++ {
		m := gen.Random(40+int(seed)*7, 1.5, seed)
		pm, err := m.Permute(order.MMD(m))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, sweepCase{fmt.Sprintf("random%d", seed), pm, symbolic.Analyze(pm)})
	}
	for ci, c := range cases {
		rng := rand.New(rand.NewSource(int64(ci)))
		for _, km := range segmentKernels(c.m) {
			k := km.k
			val, err := k.Factorize(km.m, c.f)
			if err != nil {
				t.Fatalf("%s %v: %v", c.name, k, err)
			}
			for r := 0; r < 2; r++ {
				b := sweepRHS(rng, c.f.N, [][]float64{finiteSpecials, wideSpecials}[r])
				want := append([]float64(nil), b...)
				refLower(k, c.f, val, want)
				y := append([]float64(nil), b...)
				if r == 0 {
					if err := forwardCuts(k, c.f, val, y); err != nil {
						t.Fatalf("%s %v: %v", c.name, k, err)
					}
				} else {
					for j := 0; j < c.f.N; j++ {
						k.Forward(c.f, val, y, j, c.f.ColPtr[j], c.f.ColPtr[j+1])
					}
				}
				if err := sameBits(y, want); err != nil {
					t.Fatalf("%s %v rhs %d: Forward diverged from the forward oracle at %v", c.name, k, r, err)
				}
				refUpper(k, c.f, val, want)
				x := append([]float64(nil), b...)
				k.Solve(c.f, val, x)
				if err := sameBits(x, want); err != nil {
					t.Fatalf("%s %v rhs %d: Solve diverged from the oracle at %v", c.name, k, r, err)
				}
			}
		}
	}
}
