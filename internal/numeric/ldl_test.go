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

func TestLDLKnown2x2(t *testing.T) {
	// A = [4 2; 2 5] = L D L^T with L = [1 0; 0.5 1], D = diag(4, 4).
	m, err := sparse.FromTriplets(2, []int{0, 1, 1}, []int{0, 0, 1}, []float64{4, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	f := symbolic.Analyze(m)
	l, err := FactorizeLDL(m, f)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 0.5, 4}
	for k, w := range want {
		if math.Abs(l.Val[k]-w) > 1e-12 {
			t.Errorf("Val[%d] = %g, want %g", k, l.Val[k], w)
		}
	}
}

func TestLDLMatchesCholeskyOnSPD(t *testing.T) {
	// For SPD matrices, L_ldl * sqrt(D) == L_chol.
	fc := func(seed int64) bool {
		m := gen.Random(35, 1.3, seed)
		pm, err := m.Permute(order.MMD(m))
		if err != nil {
			return false
		}
		f := symbolic.Analyze(pm)
		chol, err := Factorize(pm, f)
		if err != nil {
			return false
		}
		ldl, err := FactorizeLDL(pm, f)
		if err != nil {
			return false
		}
		for j := 0; j < f.N; j++ {
			base := f.ColPtr[j]
			d := math.Sqrt(ldl.Val[base])
			if math.Abs(d-chol.Val[base]) > 1e-9 {
				return false
			}
			for q := base + 1; q < f.ColPtr[j+1]; q++ {
				if math.Abs(ldl.Val[q]*d-chol.Val[q]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fc, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLDLSolve(t *testing.T) {
	fc := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := gen.Random(40, 1.2, seed)
		f := symbolic.Analyze(m)
		l, err := FactorizeLDL(m, f)
		if err != nil {
			return false
		}
		xTrue := make([]float64, m.N)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := matVec(m, xTrue)
		x := ldlSolve(l, b)
		return ResidualNorm(m, x, b) < 1e-10
	}
	if err := quick.Check(fc, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// ldlSolve solves A·x = b on the LDLᵀ factor l: L·z = b, w = D⁻¹·z,
// Lᵀ·x = w.
func ldlSolve(l *LDL, b []float64) []float64 {
	x := append([]float64(nil), b...)
	KernelLDL.Solve(l.F, l.Val, x)
	return x
}

// inertia counts the positive, negative and zero entries of l's D, which
// by Sylvester's law is the inertia of A.
func inertia(l *LDL) (pos, neg, zero int) {
	for j := 0; j < l.F.N; j++ {
		switch d := l.Val[l.F.ColPtr[j]]; {
		case d > 0:
			pos++
		case d < 0:
			neg++
		default:
			zero++
		}
	}
	return
}

func TestLDLIndefinite(t *testing.T) {
	// LDL^T handles symmetric indefinite matrices Cholesky rejects
	// (as long as no pivot hits zero). A = [1 2; 2 1]: eigenvalues 3, -1.
	m, err := sparse.FromTriplets(2, []int{0, 1, 1}, []int{0, 0, 1}, []float64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	f := symbolic.Analyze(m)
	if _, err := Factorize(m, f); err == nil {
		t.Fatal("Cholesky should reject an indefinite matrix")
	}
	l, err := FactorizeLDL(m, f)
	if err != nil {
		t.Fatal(err)
	}
	pos, neg, zero := inertia(l)
	if pos != 1 || neg != 1 || zero != 0 {
		t.Errorf("inertia = (%d,%d,%d), want (1,1,0)", pos, neg, zero)
	}
	x := ldlSolve(l, []float64{1, 0})
	if r := ResidualNorm(m, x, []float64{1, 0}); r > 1e-12 {
		t.Errorf("indefinite solve residual %g", r)
	}
}

func TestLDLInertiaSPD(t *testing.T) {
	m := gen.Lap30()
	f := symbolic.Analyze(m)
	l, err := FactorizeLDL(m, f)
	if err != nil {
		t.Fatal(err)
	}
	pos, neg, zero := inertia(l)
	if pos != m.N || neg != 0 || zero != 0 {
		t.Errorf("SPD inertia = (%d,%d,%d), want (%d,0,0)", pos, neg, zero, m.N)
	}
}

func TestLDLErrors(t *testing.T) {
	m, _ := sparse.NewPattern(3, nil)
	f := symbolic.Analyze(m)
	if _, err := FactorizeLDL(m, f); err == nil {
		t.Fatal("expected error for pattern-only matrix")
	}
	// Zero pivot: A = [0].
	z, _ := sparse.FromTriplets(1, []int{0}, []int{0}, []float64{0})
	fz := symbolic.Analyze(z)
	if _, err := FactorizeLDL(z, fz); err == nil {
		t.Fatal("expected zero-pivot error")
	}
}
