package numeric

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// cutColumn cuts the positions of column j into runs at seeded random
// points (each column draws how often it is cut, never included) and
// returns them with the diagonal's run first and the rest shuffled.
func cutColumn(rng *rand.Rand, f *symbolic.Factor, j int) [][2]int {
	lo, hi := f.ColPtr[j], f.ColPtr[j+1]
	often := []float64{0, 0.2, 0.6, 1}[rng.Intn(4)]
	var runs [][2]int
	for q := lo + 1; q < hi; q++ {
		if rng.Float64() < often {
			runs = append(runs, [2]int{lo, q})
			lo = q
		}
	}
	runs = append(runs, [2]int{lo, hi})
	rest := runs[1:]
	rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
	return runs
}

// colStep is the column step of positions [lo, hi) of column j over the
// sources from <= c < to.
func colStep(j, lo, hi, from, to int, finish bool) Step {
	return Step{J: int32(j), Lo: int32(lo), Hi: int32(hi), From: int32(from), To: int32(to), W: 1, Finish: finish}
}

// segmentKernels is the sweep's matrix per kernel: LDLᵀ also runs on an
// indefinite one.
func segmentKernels(m *sparse.Matrix) []struct {
	k Kernel
	m *sparse.Matrix
} {
	return []struct {
		k Kernel
		m *sparse.Matrix
	}{{KernelCholesky, m}, {KernelLDL, m}, {KernelLDL, withIndefiniteDiagonal(m)}}
}

// TestSegmentMatchesColumn: cutting every column into runs at random
// points and applying them — the diagonal's run first, the rest in random
// order, one scratch vector throughout — gives bit for bit the factor of
// whole-column steps, on every structure of the oracle sweep (the
// suite's under -race) and for both kernels.
func TestSegmentMatchesColumn(t *testing.T) {
	for ci, c := range sweepCases(t) {
		if raceBuild && ci >= 6*len(gen.Suite()) {
			break // the suite comes first: three orders, each also relaxed
		}
		for _, km := range segmentKernels(c.m) {
			k, m := km.k, km.m
			want, err := ScatterA(m, c.f)
			if err != nil {
				t.Fatal(err)
			}
			val := append([]float64(nil), want...)
			w := make([]float64, c.f.N)
			for j := 0; j < c.f.N; j++ {
				if err := k.Step(c.f, want, &w, colStep(j, c.f.ColPtr[j], c.f.ColPtr[j+1], 0, j, true)); err != nil {
					t.Fatalf("%s %v: column %d: %v", c.name, k, j, err)
				}
			}
			rng := rand.New(rand.NewSource(int64(ci)))
			for j := 0; j < c.f.N; j++ {
				for _, r := range cutColumn(rng, c.f, j) {
					if err := k.Step(c.f, val, &w, colStep(j, r[0], r[1], 0, j, true)); err != nil {
						t.Fatalf("%s %v: column %d run [%d, %d): %v", c.name, k, j, r[0], r[1], err)
					}
				}
			}
			if err := sameBits(val, want); err != nil {
				t.Fatalf("%s %v: runs diverged from whole columns at %v", c.name, k, err)
			}
		}
	}
}

// TestSegmentReadsOnlyItsSources pins what lets the engine run a run as
// soon as its predecessors finish: a column step reads its own positions,
// the diagonal of its column when the run lies below it and the source
// columns with a row in the run, and it writes the run and the run's rows
// of the scratch vector — nothing else. Before every call all other
// positions hold NaN (the later columns, the parts of column j outside
// the run, every other column left of j, each source with no row in the
// run) and the scratch vector holds zeros; the run must still come out
// bit for bit as in the whole-column factor, every other position must
// still be NaN and every other scratch row +0. (A value read and never
// used — a multiplier loaded for an empty slice — leaves no trace here;
// that is the race detector's to find.)
func TestSegmentReadsOnlyItsSources(t *testing.T) {
	for gi, tm := range gen.Suite() {
		m0 := tm.Build()
		pm, err := m0.Permute(order.MMD(m0))
		if err != nil {
			t.Fatal(err)
		}
		f := symbolic.Analyze(pm)
		for _, km := range segmentKernels(pm) {
			k, m := km.k, km.m
			want, err := k.Factorize(m, f)
			if err != nil {
				t.Fatalf("%s %v: %v", tm.Name, k, err)
			}
			a, err := ScatterA(m, f)
			if err != nil {
				t.Fatal(err)
			}
			nan := math.NaN()
			val := make([]float64, f.NNZ())
			for q := range val {
				val[q] = nan
			}
			w := make([]float64, f.N)
			rng := rand.New(rand.NewSource(int64(gi)))
			var shown []int // positions filled for the call, NaN again after it
			show := func(from []float64, lo, hi int) {
				for q := lo; q < hi; q++ {
					val[q] = from[q]
					shown = append(shown, q)
				}
			}
			for j := 0; j < f.N; j++ {
				diag := f.ColPtr[j]
				for _, r := range cutColumn(rng, f, j) {
					lo, hi := r[0], r[1]
					rlo, rhi := f.RowInd[lo], f.RowInd[hi-1]
					show(a, lo, hi)
					if lo > diag {
						show(want, diag, diag+1)
					}
					cols := f.AppendRow(nil, j, false)
					for e, p := range f.AppendRow(nil, j, true) {
						c := int(cols[e])
						for _, i := range f.RowInd[p:f.ColPtr[c+1]] {
							if rlo <= i && i <= rhi {
								show(want, f.ColPtr[c], f.ColPtr[c+1])
								break
							}
						}
					}
					clear(w)
					if err := k.Step(f, val, &w, colStep(j, lo, hi, 0, j, true)); err != nil {
						t.Fatalf("%s %v: column %d run [%d, %d): %v", tm.Name, k, j, lo, hi, err)
					}
					if err := sameBits(val[lo:hi], want[lo:hi]); err != nil {
						t.Fatalf("%s %v: column %d run [%d, %d) read outside its sources: %v", tm.Name, k, j, lo, hi, err)
					}
					for _, i := range f.RowInd[lo:hi] {
						w[i] = 0
					}
					for i, x := range w {
						if math.Float64bits(x) != 0 {
							t.Fatalf("%s %v: column %d run [%d, %d) wrote scratch row %d outside the run", tm.Name, k, j, lo, hi, i)
						}
					}
					for _, q := range shown {
						val[q] = nan
					}
					shown = shown[:0]
					for q, x := range val {
						if !math.IsNaN(x) {
							t.Fatalf("%s %v: column %d run [%d, %d) wrote position %d outside the run", tm.Name, k, j, lo, hi, q)
						}
					}
				}
			}
		}
	}
}

// TestStepSplitAtLastSource pins what lets the engine run a column in two
// halves: Step over the sources before the column's last one, then Step
// over the rest with finish set, gives the whole column's bits. While the
// first half runs, the last source and every column after j hold NaN, so
// it reads neither; the partial sums it leaves in column j are all the
// second half starts from.
func TestStepSplitAtLastSource(t *testing.T) {
	for _, tm := range gen.Suite() {
		m0 := tm.Build()
		pm, err := m0.Permute(order.MMD(m0))
		if err != nil {
			t.Fatal(err)
		}
		f := symbolic.Analyze(pm)
		ri := f.Rows()
		for _, km := range segmentKernels(pm) {
			k, m := km.k, km.m
			want, err := k.Factorize(m, f)
			if err != nil {
				t.Fatalf("%s %v: %v", tm.Name, k, err)
			}
			a, err := ScatterA(m, f)
			if err != nil {
				t.Fatal(err)
			}
			// Columns before j hold their factor, j and after NaN.
			val := make([]float64, f.NNZ())
			for q := range val {
				val[q] = math.NaN()
			}
			w := make([]float64, f.N)
			for j := 0; j < f.N; j++ {
				lo, hi := f.ColPtr[j], f.ColPtr[j+1]
				copy(val[lo:hi], a[lo:hi])
				last := j
				if e := ri.RunPtr[j+1]; e > ri.RunPtr[j] {
					last = int(ri.Last[e-1])
					c := val[f.ColPtr[last]:f.ColPtr[last+1]]
					for q := range c {
						c[q] = math.NaN()
					}
					if err := k.Step(f, val, &w, colStep(j, lo, hi, 0, last, false)); err != nil {
						t.Fatalf("%s %v: column %d first half: %v", tm.Name, k, j, err)
					}
					copy(c, want[f.ColPtr[last]:f.ColPtr[last+1]])
				}
				if err := k.Step(f, val, &w, colStep(j, lo, hi, last, j, true)); err != nil {
					t.Fatalf("%s %v: column %d second half: %v", tm.Name, k, j, err)
				}
				if err := sameBits(val[lo:hi], want[lo:hi]); err != nil {
					t.Fatalf("%s %v: column %d split at source %d: %v", tm.Name, k, j, last, err)
				}
			}
		}
	}
}
