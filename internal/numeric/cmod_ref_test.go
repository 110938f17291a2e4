package numeric

import (
	"fmt"
	"math"
	"slices"
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
	n, rowPos, colOf := f.N, refRowPos(f), f.ColIndex()
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

// refRowPos is the positions of each row's off-diagonal entries, their
// columns ascending, built from the columns rather than read from
// Factor.Rows.
func refRowPos(f *symbolic.Factor) [][]int {
	rowPos, colOf := make([][]int, f.N), f.ColIndex()
	for q, i := range f.RowInd {
		if colOf[q] != i {
			rowPos[i] = append(rowPos[i], q)
		}
	}
	return rowPos
}

// sweepCase is one (matrix, structure) pair of the oracle sweep; m is
// already in elimination order and f is Analyze(m) or a padded superset.
type sweepCase struct {
	name string
	m    *sparse.Matrix
	f    *symbolic.Factor
}

// sweepCases is the suite, Grid9(60,60), PowerBus, Cannes and
// Grid9(120,120) under MMD, natural and nested-dissection orders, each on
// its own structure and on the RelaxZeros = 0.3 padded one. -short keeps
// the suite only; a race build leaves out Grid9(120,120), whose tests run
// on one goroutine, where the race detector has nothing to find and
// multiplies their minute many times over.
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
		if !raceBuild {
			ms = append(ms, named{"GRID9_120", gen.Grid9(120, 120)})
		}
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
	acc, rowPos, colOf := make([]float64, f.N), refRowPos(f), f.ColIndex()
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
		for _, q := range rowPos[j] {
			add(q, int(colOf[q]))
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

// TestFactorizeLongRunsBitwiseRef: an arrow matrix of n = 600, its hub
// first, fills its factor completely, so row j has j sources in one
// supernode, held as runs of at most 255 columns (three for the last
// rows). Both kernels give the oracle's factor bit for bit, whole and with
// every column applied as two Steps cut at a third of its sources, inside
// a run.
func TestFactorizeLongRunsBitwiseRef(t *testing.T) {
	const n = 600
	var is, js []int
	var vs []float64
	for i := 0; i < n; i++ {
		is, js, vs = append(is, i), append(js, i), append(vs, float64(4*n+i%7))
		if i > 0 {
			is, js, vs = append(is, i), append(js, 0), append(vs, -1-float64(i%5)/7)
		}
	}
	m, err := sparse.FromTriplets(n, is, js, vs)
	if err != nil {
		t.Fatal(err)
	}
	f := symbolic.Analyze(m)
	ri := f.Rows()
	if f.NNZ() != n*(n+1)/2 || ri.RunPtr[n]-ri.RunPtr[n-1] != 3 || ri.RunLen[ri.RunPtr[n-1]] != 255 {
		t.Fatalf("nnz %d, last row in %d runs: not the dense factor", f.NNZ(), ri.RunPtr[n]-ri.RunPtr[n-1])
	}
	for _, k := range []Kernel{KernelCholesky, KernelLDL} {
		for _, m := range []*sparse.Matrix{m, withIndefiniteDiagonal(m)} {
			if k == KernelCholesky && m.Val[m.ColPtr[0]] < 0 {
				continue
			}
			want, bad, err := refFactorize(k, m, f)
			if err != nil || bad >= 0 {
				t.Fatalf("%v: oracle failed: column %d, %v", k, bad, err)
			}
			got, err := k.Factorize(m, f)
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			if err := sameBits(got, want); err != nil {
				t.Fatalf("%v: runs past 255 diverged from the oracle at %v", k, err)
			}
			val, err := ScatterA(m, f)
			if err != nil {
				t.Fatal(err)
			}
			w := make([]float64, n)
			for j := 0; j < n; j++ {
				lo, hi := f.ColPtr[j], f.ColPtr[j+1]
				if err := k.Step(f, val, &w, colStep(j, lo, hi, 0, j/3, false)); err != nil {
					t.Fatal(err)
				}
				if err := k.Step(f, val, &w, colStep(j, lo, hi, j/3, j, true)); err != nil {
					t.Fatal(err)
				}
			}
			if err := sameBits(val, want); err != nil {
				t.Fatalf("%v: columns cut inside a record diverged from the oracle at %v", k, err)
			}
		}
	}
}

// TestGroupsHaveIdenticalTails: the sources of every run the body walks
// really have element-wise equal row lists from the target row down, which
// is what lets one index load serve a pass of four or two of them. The
// share of multiply-adds per pass width is logged (-v): it is the table of
// EXPERIMENTS.md Kern-1.
func TestGroupsHaveIdenticalTails(t *testing.T) {
	for _, c := range sweepCases(t) {
		f, ri := c.f, c.f.Rows()
		var madds [5]int64
		for j := 0; j < f.N; j++ {
			for x := ri.RunPtr[j]; x < ri.RunPtr[j+1]; x++ {
				n, run := int(ri.Tail[x]), make([]int32, ri.RunLen[x])
				for y := range run {
					run[y] = ri.Last[x] - int32(len(run)-1-y)
				}
				lead := f.RowInd[f.ColPtr[run[0]+1]-n : f.ColPtr[run[0]+1]]
				if int(lead[0]) != j {
					t.Fatalf("%s: row %d run %d of %d sources points at row %d", c.name, j, x, len(run), lead[0])
				}
				for _, k := range run[1:] {
					tail := f.RowInd[f.ColPtr[k+1]-n : f.ColPtr[k+1]]
					if !slices.Equal(tail, lead) || f.ColPtr[k]+n >= f.ColPtr[k+1] {
						t.Fatalf("%s: row %d: columns %d and %d in one run, tails of %d rows differ", c.name, j, run[0], k, n)
					}
				}
				madds[4] += int64(len(run) / 4 * 4 * n)
				madds[2] += int64(len(run) % 4 / 2 * 2 * n)
				madds[1] += int64(len(run) % 2 * n)
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
