package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

func TestFactorizeKnown2x2(t *testing.T) {
	// A = [4 2; 2 5] => L = [2 0; 1 2].
	m, err := sparse.FromTriplets(2, []int{0, 1, 1}, []int{0, 0, 1}, []float64{4, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	f := symbolic.Analyze(m)
	c, err := Factorize(m, f)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 1, 2}
	for k, w := range want {
		if math.Abs(c.Val[k]-w) > 1e-12 {
			t.Errorf("Val[%d] = %g, want %g", k, c.Val[k], w)
		}
	}
}

func TestFactorizeIdentity(t *testing.T) {
	m, _ := sparse.NewPattern(5, nil)
	m.SetLaplacianValues(1) // diag = 1 (degree 0 + 1)
	f := symbolic.Analyze(m)
	c, err := Factorize(m, f)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		if math.Abs(c.Val[f.ColPtr[j]]-1) > 1e-15 {
			t.Errorf("identity factor diagonal %d = %g", j, c.Val[f.ColPtr[j]])
		}
	}
}

func TestFactorizeNotSPD(t *testing.T) {
	m, err := sparse.FromTriplets(2, []int{0, 1, 1}, []int{0, 0, 1}, []float64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	f := symbolic.Analyze(m)
	_, err = Factorize(m, f)
	if err == nil {
		t.Fatal("expected not-positive-definite error")
	}
	var npd *NotPositiveDefiniteError
	if e, ok := err.(*NotPositiveDefiniteError); ok {
		npd = e
	} else {
		t.Fatalf("error type %T, want *NotPositiveDefiniteError", err)
	}
	if npd.Column != 1 {
		t.Errorf("failure column = %d, want 1", npd.Column)
	}
}

func TestFactorizeRejectsPatternOnly(t *testing.T) {
	m, _ := sparse.NewPattern(3, nil)
	f := symbolic.Analyze(m)
	if _, err := Factorize(m, f); err == nil {
		t.Fatal("expected error for pattern-only matrix")
	}
}

func TestFactorResidualRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := gen.Random(40, 1.5, seed)
		p := order.MMD(m)
		pm, err := m.Permute(p)
		if err != nil {
			return false
		}
		fac := symbolic.Analyze(pm)
		c, err := Factorize(pm, fac)
		if err != nil {
			return false
		}
		return FactorResidual(pm, c) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := gen.Random(50, 1.0, seed)
		fac := symbolic.Analyze(m)
		c, err := Factorize(m, fac)
		if err != nil {
			return false
		}
		xTrue := make([]float64, m.N)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := MatVec(m, xTrue)
		x := c.Solve(b)
		return ResidualNorm(m, x, b) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveSuiteMatrices(t *testing.T) {
	for _, tm := range gen.Suite() {
		m := tm.Build()
		pm, err := m.Permute(order.MMD(m))
		if err != nil {
			t.Fatal(err)
		}
		fac := symbolic.Analyze(pm)
		c, err := Factorize(pm, fac)
		if err != nil {
			t.Fatalf("%s: %v", tm.Name, err)
		}
		b := make([]float64, pm.N)
		for i := range b {
			b[i] = float64(i%7) - 3
		}
		x := c.Solve(b)
		if r := ResidualNorm(pm, x, b); r > 1e-9 {
			t.Errorf("%s: solve residual %g", tm.Name, r)
		}
	}
}

func TestLowerUpperSolveConsistency(t *testing.T) {
	m := gen.Grid5(5, 5)
	fac := symbolic.Analyze(m)
	c, err := Factorize(m, fac)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, m.N)
	b[0] = 1
	y := c.LowerSolve(b)
	// L*y must equal b.
	lm := c.L()
	n := m.N
	got := make([]float64, n)
	for j := 0; j < n; j++ {
		cj := lm.Col(j)
		vj := lm.ColVal(j)
		for k, i := range cj {
			got[i] += vj[k] * y[j]
		}
	}
	for i := range b {
		if math.Abs(got[i]-b[i]) > 1e-12 {
			t.Fatalf("L*y != b at %d: %g vs %g", i, got[i], b[i])
		}
	}
}

func TestMatVecSymmetry(t *testing.T) {
	// xᵀ(Ay) == yᵀ(Ax) for symmetric A.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := gen.Random(20, 1.0, seed)
		x := make([]float64, m.N)
		y := make([]float64, m.N)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		ax := MatVec(m, x)
		ay := MatVec(m, y)
		var d1, d2 float64
		for i := range x {
			d1 += x[i] * ay[i]
			d2 += y[i] * ax[i]
		}
		return math.Abs(d1-d2) < 1e-8*(1+math.Abs(d1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDimensionMismatch(t *testing.T) {
	m := gen.Grid5(3, 3)
	other := gen.Grid5(2, 2)
	f := symbolic.Analyze(other)
	if _, err := Factorize(m, f); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}
