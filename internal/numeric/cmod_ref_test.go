package numeric

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// refFactorize is the definition of the factor's bits: the textbook
// left-looking loop, every column receiving its pair updates one source
// column at a time in ascending source column, no grouping, no dense
// accumulator, its row lists built here rather than read from
// Factor.Rows. l is L[j,k] for Cholesky and D[k]·L[j,k], formed once per
// source, for LDLᵀ. A rejected pivot comes back as its column (-1: none).
func refFactorize(k Kernel, m *sparse.Matrix, f *symbolic.Factor) (val []float64, badCol int, err error) {
	if val, err = ScatterA(m, f); err != nil {
		return nil, -1, err
	}
	n := f.N
	rowPos := make([][]int, n) // row j -> positions of (j, k), k ascending
	colOf := f.ColIndex()
	for q, i := range f.RowInd {
		if colOf[q] != i {
			rowPos[i] = append(rowPos[i], q)
		}
	}
	tpos := make([]int, n)
	for j := 0; j < n; j++ {
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			tpos[f.RowInd[q]] = q
		}
		for _, p := range rowPos[j] {
			c := int(colOf[p])
			l := val[p]
			if k == KernelLDL {
				l = val[f.ColPtr[c]] * val[p]
			}
			for q := p; q < f.ColPtr[c+1]; q++ {
				val[tpos[f.RowInd[q]]] -= val[q] * l
			}
		}
		diag := f.ColPtr[j]
		d := val[diag]
		if math.IsNaN(d) || math.IsInf(d, 0) || d == 0 || (k != KernelLDL && d < 0) {
			return nil, j, nil
		}
		if k != KernelLDL {
			d = math.Sqrt(d)
		}
		val[diag] = d
		for q := diag + 1; q < f.ColPtr[j+1]; q++ {
			val[q] /= d
		}
	}
	return val, -1, nil
}

// sweepCase is one (matrix, structure) pair of the oracle sweep; m is
// already in elimination order and f is Analyze(m) or a padded superset.
type sweepCase struct {
	name string
	m    *sparse.Matrix
	f    *symbolic.Factor
}

// sweepCases is the suite, Grid9(60,60), PowerBus and Cannes under MMD,
// natural and nested-dissection orders, each on its own structure and on
// the RelaxZeros = 0.3 padded one. -short keeps the suite only.
func sweepCases(t testing.TB) []sweepCase {
	type named struct {
		name string
		m    *sparse.Matrix
	}
	var ms []named
	for _, tm := range gen.Suite() {
		ms = append(ms, named{tm.Name, tm.Build()})
	}
	if !testing.Short() {
		ms = append(ms,
			named{"GRID9_60", gen.Grid9(60, 60)},
			named{"POWERBUS", gen.PowerBus(3000, 900, 1)},
			named{"CANNES", gen.Cannes(1500, 8000, 1)})
	}
	var cases []sweepCase
	for _, nm := range ms {
		for _, o := range []struct {
			name string
			perm []int
		}{
			{"mmd", order.MMD(nm.m)},
			{"natural", order.Natural(nm.m.N)},
			{"nd", order.NestedDissection(nm.m, 0)},
		} {
			pm, err := nm.m.Permute(o.perm)
			if err != nil {
				t.Fatal(err)
			}
			f := symbolic.Analyze(pm)
			padded, _ := symbolic.Relax(f, 0.3)
			cases = append(cases,
				sweepCase{nm.name + "/" + o.name, pm, f},
				sweepCase{nm.name + "/" + o.name + "/relaxed", pm, padded})
		}
	}
	return cases
}

// withIndefiniteDiagonal returns m with every third diagonal negated: still
// strictly diagonally dominant, so every leading minor is nonsingular and
// LDLᵀ exists, with D of both signs.
func withIndefiniteDiagonal(m *sparse.Matrix) *sparse.Matrix {
	out := &sparse.Matrix{N: m.N, ColPtr: m.ColPtr, RowInd: m.RowInd, Val: append([]float64(nil), m.Val...)}
	for j := 0; j < m.N; j += 3 {
		out.Val[m.ColPtr[j]] = -out.Val[m.ColPtr[j]]
	}
	return out
}

// factorResidual is max |(L·D·Lᵀ − A)[i][j]| over the structure of A (D the
// identity for Cholesky) and ‖A‖max, column by column: entry (i, j) of the
// product is the sum over k <= j of L[i,k]·D[k]·L[j,k].
func factorResidual(k Kernel, m *sparse.Matrix, f *symbolic.Factor, val []float64) (worst, norm float64) {
	ri := f.Rows()
	acc := make([]float64, f.N)
	// lv is L's value at position q of column c (LDLᵀ keeps D on the
	// diagonal positions; L's own diagonal is 1) and d is D[c].
	lv := func(q, c int) float64 {
		if k == KernelLDL && q == f.ColPtr[c] {
			return 1
		}
		return val[q]
	}
	d := func(c int) float64 {
		if k == KernelLDL {
			return val[f.ColPtr[c]]
		}
		return 1
	}
	for j := 0; j < f.N; j++ {
		add := func(p, c int) { // column c from position p (row j) down
			l := lv(p, c) * d(c)
			for q := p; q < f.ColPtr[c+1]; q++ {
				acc[f.RowInd[q]] += lv(q, c) * l
			}
		}
		for e := ri.Ptr[j]; e < ri.Ptr[j+1]; e++ {
			add(int(ri.Pos[e]), int(ri.Cols[e]))
		}
		add(f.ColPtr[j], j)
		for t, i := range m.Col(j) {
			a := m.ColVal(j)[t]
			worst = math.Max(worst, math.Abs(acc[i]-a))
			norm = math.Max(norm, math.Abs(a))
		}
		for _, i := range f.Col(j) {
			acc[i] = 0
		}
	}
	return worst, norm
}

func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths %d vs %d", len(a), len(b))
	}
	for q := range a {
		if math.Float64bits(a[q]) != math.Float64bits(b[q]) {
			return fmt.Errorf("position %d: %g vs %g", q, a[q], b[q])
		}
	}
	return nil
}

// TestFactorizeBitwiseRef: the grouped column body produces, bit for bit,
// the factor of the one-source-at-a-time oracle — on every structure of the
// sweep, for both kernels (LDLᵀ also on an indefinite matrix) — and that
// factor reproduces A.
func TestFactorizeBitwiseRef(t *testing.T) {
	for _, c := range sweepCases(t) {
		for _, k := range []Kernel{KernelCholesky, KernelLDL} {
			ms := []*sparse.Matrix{c.m}
			if k == KernelLDL {
				ms = append(ms, withIndefiniteDiagonal(c.m))
			}
			for _, m := range ms {
				want, bad, err := refFactorize(k, m, c.f)
				if err != nil || bad >= 0 {
					t.Fatalf("%s %v: oracle failed: column %d, %v", c.name, k, bad, err)
				}
				got, err := k.Factorize(m, c.f)
				if err != nil {
					t.Fatalf("%s %v: %v", c.name, k, err)
				}
				if err := sameBits(got, want); err != nil {
					t.Fatalf("%s %v: grouped body diverged from the oracle at %v", c.name, k, err)
				}
				if res, norm := factorResidual(k, m, c.f, got); res > 1e-10*norm {
					t.Fatalf("%s %v: residual %g, ‖A‖ = %g", c.name, k, res, norm)
				}
			}
		}
	}
}

// TestGroupsHaveIdenticalTails: every pass the body forms — two or four
// consecutive sources of a row — really has element-wise equal row lists
// from the target row down, which is what lets one index load serve all of
// them. The share of multiply-adds per pass width is logged (-v): it is the
// table of EXPERIMENTS.md Kern-1.
func TestGroupsHaveIdenticalTails(t *testing.T) {
	cases := sweepCases(t)
	if !testing.Short() {
		big := gen.Grid9(120, 120)
		pm, err := big.Permute(order.MMD(big))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, sweepCase{"GRID9_120/mmd", pm, symbolic.Analyze(pm)})
	}
	for _, c := range cases {
		f, ri := c.f, c.f.Rows()
		var madds [5]int64
		for j := 0; j < f.N; j++ {
			cols, pos := ri.Cols[ri.Ptr[j]:ri.Ptr[j+1]], ri.Pos[ri.Ptr[j]:ri.Ptr[j+1]]
			for at := 0; at < len(cols); {
				g := passWidth(f, cols, pos, at, f.ColPtr[cols[at]+1]-int(pos[at]))
				if g != 1 && g != 2 && g != 4 || at+g > len(cols) {
					t.Fatalf("%s: row %d entry %d: pass width %d of %d entries", c.name, j, at, g, len(cols))
				}
				lead := f.RowInd[pos[at]:f.ColPtr[cols[at]+1]]
				if int(lead[0]) != j {
					t.Fatalf("%s: row %d entry %d points at row %d", c.name, j, at, lead[0])
				}
				for u := 1; u < g; u++ {
					tail := f.RowInd[pos[at+u]:f.ColPtr[cols[at+u]+1]]
					if len(tail) != len(lead) {
						t.Fatalf("%s: row %d: columns %d and %d grouped with tails of %d and %d rows",
							c.name, j, cols[at], cols[at+u], len(lead), len(tail))
					}
					for x := range lead {
						if tail[x] != lead[x] {
							t.Fatalf("%s: row %d: columns %d and %d grouped, tails differ at %d: row %d vs %d",
								c.name, j, cols[at], cols[at+u], x, lead[x], tail[x])
						}
					}
				}
				madds[g] += int64(g * len(lead))
				at += g
			}
		}
		if total := madds[1] + madds[2] + madds[4]; total > 0 {
			t.Logf("%-26s multiply-adds %10d: fours %5.1f %%, pairs %5.1f %%, singles %5.1f %%", c.name, total,
				100*float64(madds[4])/float64(total), 100*float64(madds[2])/float64(total), 100*float64(madds[1])/float64(total))
		}
	}
}

// TestFactorizeRejectsEntryOutsideStructure: a matrix entry the factor
// structure has no position for is ScatterA's error from both kernels —
// the engine's answer too (exec's error-parity test) — never a silently
// wrong factor.
func TestFactorizeRejectsEntryOutsideStructure(t *testing.T) {
	tri, err := sparse.FromTriplets(4, []int{0, 1, 1, 2, 2, 3, 3}, []int{0, 0, 1, 1, 2, 2, 3}, []float64{4, -1, 4, -1, 4, -1, 4})
	if err != nil {
		t.Fatal(err)
	}
	f := symbolic.Analyze(tri)
	wider, err := sparse.FromTriplets(4, []int{0, 1, 3, 1, 2, 2, 3, 3}, []int{0, 0, 0, 1, 1, 2, 2, 3}, []float64{4, -1, -1, 4, -1, 4, -1, 4})
	if err != nil {
		t.Fatal(err)
	}
	const want = "numeric: entry (3, 0) lies outside the factor structure"
	if _, err := Factorize(wider, f); err == nil || err.Error() != want {
		t.Fatalf("Factorize: err = %v, want %q", err, want)
	}
	if _, err := FactorizeLDL(wider, f); err == nil || err.Error() != want {
		t.Fatalf("FactorizeLDL: err = %v, want %q", err, want)
	}
}
