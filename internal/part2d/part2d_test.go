package part2d

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/strategy"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

// newTestSys runs the analysis pipeline (MMD ordering, symbolic
// factorization) on a matrix and wraps it for the strategy registries.
func newTestSys(t testing.TB, m *sparse.Matrix) *strategy.Sys {
	t.Helper()
	perm := order.MMD(m)
	pm, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	return strategy.NewSys(symbolic.Analyze(pm), nil, nil)
}

var (
	suiteOnce sync.Once
	suiteSys  map[string]*strategy.Sys
)

// suite lazily analyzes every gen.Suite() matrix once for the package's
// tests (the analysis dominates the cost of each individual check).
func suite(t testing.TB) map[string]*strategy.Sys {
	t.Helper()
	suiteOnce.Do(func() {
		suiteSys = make(map[string]*strategy.Sys)
		for _, tm := range gen.Suite() {
			suiteSys[tm.Name] = newTestSys(t, tm.Build())
		}
	})
	return suiteSys
}

func lapSys(t testing.TB) *strategy.Sys { return suite(t)["LAP30"] }

type testMapper2D struct{ name string }

func (m testMapper2D) Name() string { return m.name }
func (m testMapper2D) Map2D(*strategy.Sys, int, strategy.Options) (*Schedule2D, error) {
	return nil, nil
}

func TestRegistry2D(t *testing.T) {
	names := Names2D()
	for _, want := range []string{"col2d", "rect2d", "rect2dcyclic", "rect2dlpt"} {
		if _, ok := Lookup2D(want); !ok {
			t.Errorf("Lookup2D(%q) = false, want registered", want)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names2D() not sorted: %v", names)
		}
	}
	if _, ok := Lookup2D("no-such-strategy"); ok {
		t.Error("Lookup2D of unknown strategy succeeded")
	}
	if _, err := Map2D("no-such-strategy", nil, 4, strategy.Options{}); err == nil ||
		!strings.Contains(err.Error(), "rect2d") {
		t.Errorf("Map2D(unknown) error = %v, want one listing registered names", err)
	}
}

func TestRegister2DPanics(t *testing.T) {
	mustPanic := func(name string, m Mapper2D) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Register2D(%q) did not panic", name)
			}
		}()
		Register2D(m)
	}
	mustPanic("duplicate", testMapper2D{name: "rect2d"})
	mustPanic("empty", testMapper2D{name: ""})
}

func TestMap2DInvalidProcs(t *testing.T) {
	sys := newTestSys(t, gen.Grid5(4, 4))
	for _, name := range Names2D() {
		if _, err := Map2D(name, sys, 0, strategy.Options{}); err == nil {
			t.Errorf("%s: Map2D with p=0 succeeded, want error", name)
		}
	}
}

// TestTileOwnerOutOfRange: TileOwner answers -1, never panics, for any
// (r, c) outside the lower triangle 0 <= c <= r < R.
func TestTileOwnerOutOfRange(t *testing.T) {
	sys := newTestSys(t, gen.Grid5(4, 4))
	s, err := New(sys.F, sys.ElemWork, 3, []int{0, 5, 11, sys.F.N}, func(r, c int) int32 { return int32(r+c) % 3 })
	if err != nil {
		t.Fatal(err)
	}
	r := s.R()
	for _, tc := range []struct{ r, c int }{
		{-1, 0}, {0, -1}, {-1, -1}, {-5, -7}, // negative
		{0, 1}, {1, 2}, {r - 2, r - 1}, // r < c
		{r, 0}, {r, r}, {r - 1, r}, {r + 1, r}, {0, r}, // r or c = R and past it
		{1 << 40, 0}, {0, -1 << 40},
	} {
		if got := s.TileOwner(tc.r, tc.c); got != -1 {
			t.Errorf("TileOwner(%d, %d) = %d, want -1", tc.r, tc.c, got)
		}
	}
	for c := 0; c < r; c++ {
		if got, want := s.TileOwner(c, c), int32(2*c)%3; got != want {
			t.Errorf("TileOwner(%d, %d) = %d, want %d", c, c, got, want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	sys := newTestSys(t, gen.Grid5(3, 3))
	n := sys.F.N
	good := []int{0, n}
	on := func(o int32) func(r, c int) int32 { return func(int, int) int32 { return o } }
	if _, err := New(sys.F, sys.ElemWork, 0, good, on(0)); err == nil {
		t.Error("New with p=0 succeeded")
	}
	if _, err := New(sys.F, sys.ElemWork, 2, []int{0, n - 1}, on(0)); err == nil {
		t.Error("New with bounds not reaching n succeeded")
	}
	if _, err := New(sys.F, sys.ElemWork, 2, []int{0, 3, 3, n}, on(0)); err == nil {
		t.Error("New with an empty interval succeeded")
	}
	if _, err := New(sys.F, sys.ElemWork, 2, good, on(5)); err == nil {
		t.Error("New with out-of-range owner succeeded")
	}
	if _, err := New(sys.F, sys.ElemWork, 2, good, on(-1)); err == nil {
		t.Error("New with negative owner succeeded")
	}
	s, err := New(sys.F, sys.ElemWork, 2, good, on(1))
	if err != nil {
		t.Fatalf("New on a valid single-tile schedule: %v", err)
	}
	if s.R() != 1 || s.Tiles() != 1 || s.work[1] != sys.Total {
		t.Errorf("single-tile schedule: R=%d tiles=%d work=%v (total %d)",
			s.R(), s.Tiles(), s.work, sys.Total)
	}
	// The rule is consulted for the non-empty tiles only: with one
	// interval per index, tile (r, c) is element (r, c), and an
	// out-of-range owner on an empty one is never seen.
	perIndex := make([]int, n+1)
	for i := range perIndex {
		perIndex[i] = i
	}
	asked := 0
	s, err = New(sys.F, sys.ElemWork, 2, perIndex, func(r, c int) int32 {
		if !sys.F.Has(r, c) {
			return 7
		}
		asked++
		return 0
	})
	if err != nil || asked != sys.F.NNZ() || s.Tiles() != sys.F.NNZ() {
		t.Fatalf("one interval per index: %v, rule asked %d times, %d tiles, want %d each", err, asked, s.Tiles(), sys.F.NNZ())
	}
	for r := 0; r < n; r++ {
		for c := 0; c <= r; c++ {
			want := int32(-1) // an empty tile has no owner
			if sys.F.Has(r, c) {
				want = 0
			}
			if got := s.TileOwner(r, c); got != want {
				t.Errorf("tile (%d, %d) has owner %d, want %d", r, c, got, want)
			}
		}
	}
}

// checkSchedule2D verifies the structural invariants every mapped 2D
// schedule must satisfy: derived element ownership matching the tile
// owners, per-processor work summing to the total, and in-range owners.
func checkSchedule2D(t *testing.T, sys *strategy.Sys, s *Schedule2D, label string, p int) {
	t.Helper()
	if s.P != p {
		t.Fatalf("%s: P = %d, want %d", label, s.P, p)
	}
	var tot int64
	for _, w := range s.work {
		tot += w
	}
	if tot != sys.Total {
		t.Errorf("%s: work sums to %d, want %d", label, tot, sys.Total)
	}
	f := sys.F
	for j := 0; j < f.N; j++ {
		c := int(s.blockOf[j])
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			want := s.TileOwner(int(s.blockOf[f.RowInd[q]]), c)
			if got := s.elemProc[q]; got != want {
				t.Fatalf("%s: element %d owned by %d, tile owner %d", label, q, got, want)
			}
			if want < 0 || int(want) >= p {
				t.Fatalf("%s: tile owner %d out of range", label, want)
			}
		}
	}
}

// TestConservation2DSuite is the 2D half of the conservation satellite:
// on every suite matrix and every native 2D mapper, the per-tile fan-out
// and fan-in volumes sum to the deduplicated 2D total, which equals
// traffic.Simulate over the derived element ownership — the 2D analogue
// of the ColumnRefs/Simulate identity.
func TestConservation2DSuite(t *testing.T) {
	// MaxMoves keeps the rect2d descent cheap on the full suite; the
	// conservation identity must hold at any budget.
	opts := strategy.Options{MaxMoves: 8}
	for mname, sys := range suite(t) {
		for _, p := range []int{4, 16} {
			for _, name := range []string{"rect2d", "rect2dlpt", "rect2dcyclic"} {
				s2, err := Map2D(name, sys, p, opts)
				if err != nil {
					t.Fatalf("%s/%s P=%d: %v", name, mname, p, err)
				}
				label := name + "/" + mname
				checkSchedule2D(t, sys, s2, label, p)
				tr := Traffic(sys.Ops, s2)
				if got := tr.TotalFanOut() + tr.TotalFanIn(); got != tr.Total {
					t.Errorf("%s P=%d: fanout+fanin = %d, total %d", label, p, got, tr.Total)
				}
				sim := traffic.Simulate(sys.Ops, s2.Schedule())
				if tr.Total != sim.Total {
					t.Errorf("%s P=%d: 2D total %d != deduplicated Simulate total %d",
						label, p, tr.Total, sim.Total)
				}
				var perProc int64
				for _, v := range tr.PerProc {
					perProc += v
				}
				if perProc != tr.Total {
					t.Errorf("%s P=%d: per-proc volumes sum to %d, total %d", label, p, perProc, tr.Total)
				}
			}
		}
	}
}

// TestCol2DLiftReproduces1D is the other half of the conservation
// satellite: lifting any column-granular 1D strategy yields the identical
// element ownership, so the 2D traffic total reproduces the 1D Simulate
// total exactly — on every suite matrix — and the lifted schedule has
// zero fan-in (a 1D column schedule only fans panel columns out; its
// scale and inner-product fetches are local to the owning block column).
func TestCol2DLiftReproduces1D(t *testing.T) {
	for mname, sys := range suite(t) {
		for _, base := range LiftBases() {
			opts := strategy.Options{Base: base}
			for _, p := range []int{1, 4, 16} {
				sc, err := strategy.Map(base, sys, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				s2, err := Map2D("col2d", sys, p, opts)
				if err != nil {
					t.Fatalf("col2d(%s)/%s P=%d: %v", base, mname, p, err)
				}
				label := "col2d(" + base + ")/" + mname
				checkSchedule2D(t, sys, s2, label, p)
				for q, want := range sc.ElemProc {
					if s2.elemProc[q] != want {
						t.Fatalf("%s P=%d: element %d owned by %d, 1D owner %d",
							label, p, q, s2.elemProc[q], want)
					}
				}
				tr := Traffic(sys.Ops, s2)
				want := strategy.Traffic(sys, opts, sc)
				if tr.Total != want.Total {
					t.Errorf("%s P=%d: 2D traffic %d != 1D traffic %d", label, p, tr.Total, want.Total)
				}
				if fi := tr.TotalFanIn(); fi != 0 {
					t.Errorf("%s P=%d: lifted schedule has fan-in %d, want 0", label, p, fi)
				}
			}
		}
	}
}

func TestCol2DRejectsBlockGranular(t *testing.T) {
	sys := lapSys(t)
	for _, base := range []string{"block", "blockgreedy"} {
		if _, err := Map2D("col2d", sys, 4, strategy.Options{Base: base}); err == nil {
			t.Errorf("col2d lifted block-granular base %q without error", base)
		}
	}
}

// TestRect2DGenuinely2D pins that the rect2d descent actually leaves the
// column-flattened start on LAP30: at least one off-diagonal tile is
// owned by a processor other than its block column's.
func TestRect2DGenuinely2D(t *testing.T) {
	sys := lapSys(t)
	s2, err := Map2D("rect2d", sys, 16, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for c := 0; c < s2.R(); c++ {
		for t := s2.tilePtr[c] + 1; t < s2.tilePtr[c+1]; t++ {
			if s2.owner[t] != s2.TileOwner(c, c) {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Error("rect2d at P=16 on LAP30 kept the column-flattened ownership; want a 2D assignment")
	}
}

// TestLiftMemoryPin: the wrap lift at the refactor workload's size (P = 2,
// so R = n = 14 400 and a dense owner table would hold 104 M entries)
// stores one tile per factor nonzero, allocates a small constant times
// nnz(L) bytes and takes well under a second.
func TestLiftMemoryPin(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(120, 120))
	sc, err := strategy.Map("wrap", sys, 2, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	s2, err := Lift(sys, sc, "wrap")
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	nnz := sys.F.NNZ()
	if s2.R() != sys.F.N || s2.Tiles() != nnz {
		t.Fatalf("wrap lift: R = %d (n = %d), %d tiles for %d nonzeros", s2.R(), sys.F.N, s2.Tiles(), nnz)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("Lift(wrap, Grid9(120,120), P=2): %d bytes = %.1f x nnz(L) = %d, %v", bytes, float64(bytes)/float64(nnz), nnz, elapsed)
	if bytes > 24*uint64(nnz) {
		t.Errorf("Lift allocated %d bytes, want <= 24 x nnz(L) = %d", bytes, 24*nnz)
	}
	if !raceBuild && elapsed > 250*time.Millisecond {
		t.Errorf("Lift took %v, want well under a second", elapsed)
	}
}

// TestRectCutsSharedReadOnly: the rectilinear cuts are computed once per
// Sys and P and shared by the 1D rectilinear mapper and the three rect2d
// mappers, so no reader may write to them. Planning the 2D mappers first
// and the 1D one last on one Sys gives exactly the plans fresh Sys give,
// the memo still holds strategy.RectilinearCuts' answer, and the bounds
// rectBounds hands out are its own: scribbling on them reaches nobody.
func TestRectCutsSharedReadOnly(t *testing.T) {
	for _, name := range []string{"LAP30", "BUS1138"} {
		base := suite(t)[name]
		fresh := func() *strategy.Sys { return strategy.NewSys(base.F, base.Ops, base.ElemWork) }
		for _, p := range []int{4, 16, 64} {
			shared := fresh()
			for _, m := range []string{"rect2d", "rect2dlpt", "rect2dcyclic"} {
				got, err := Map2D(m, shared, p, strategy.Options{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := Map2D(m, fresh(), p, strategy.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.bounds, want.bounds) || !slices.Equal(got.owner, want.owner) || !slices.Equal(got.elemProc, want.elemProc) {
					t.Fatalf("%s %s P=%d: plan on a shared Sys differs from a fresh one", name, m, p)
				}
			}
			bounds := rectBounds(shared, p)
			for i := range bounds {
				bounds[i] = -1
			}
			got, err := strategy.Map("rectilinear", shared, p, strategy.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := strategy.Map("rectilinear", fresh(), p, strategy.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.ElemProc, want.ElemProc) {
				t.Fatalf("%s P=%d: 1D rectilinear after the 2D mappers differs from a fresh plan", name, p)
			}
			cuts := shared.RectilinearCuts(p)
			if !slices.Equal(cuts, strategy.RectilinearCuts(base.Ops, base.ElemWork, p)) || &cuts[0] != &shared.RectilinearCuts(p)[0] {
				t.Fatalf("%s P=%d: the shared cuts were rebuilt or written to: %v", name, p, cuts)
			}
		}
	}
}
