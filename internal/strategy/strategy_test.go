package strategy

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// newTestSys runs the analysis pipeline (MMD ordering, symbolic
// factorization) on a matrix and wraps it for the strategy registry.
func newTestSys(t testing.TB, m *sparse.Matrix) *Sys {
	t.Helper()
	perm := order.MMD(m)
	pm, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	return NewSys(symbolic.Analyze(pm), nil, nil)
}

type testMapper struct{ name string }

func (m testMapper) Name() string { return m.name }
func (m testMapper) Map(*Sys, int, Options) (*sched.Schedule, error) {
	return nil, nil
}

func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{"block", "blockcyclic", "blockgreedy", "contiguous",
		"contigtotal", "rectilinear", "refine", "subcube", "wrap"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("Lookup(%q) = false, want registered", want)
		}
	}
	if len(names) < 5 {
		t.Errorf("Names() = %v, want at least the five shipped strategies", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %v", names)
		}
	}
	if _, ok := Lookup("no-such-strategy"); ok {
		t.Error("Lookup of unknown strategy succeeded")
	}
	if _, err := Map("no-such-strategy", nil, 4, Options{}); err == nil ||
		!strings.Contains(err.Error(), "wrap") {
		t.Errorf("Map(unknown) error = %v, want one listing registered names", err)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, m Mapper) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%q) did not panic", name)
			}
		}()
		Register(m)
	}
	mustPanic("duplicate", testMapper{name: "wrap"})
	mustPanic("empty", testMapper{name: ""})
}

func TestInvalidProcs(t *testing.T) {
	sys := newTestSys(t, gen.Grid5(4, 4))
	for _, name := range Names() {
		if _, err := Map(name, sys, 0, Options{}); err == nil {
			t.Errorf("%s: Map with p=0 succeeded, want error", name)
		}
	}
}

// TestStrategyInvariants checks, for every registered strategy x matrix x
// P, that the schedule gives every factor nonzero exactly one owner in
// range, that the per-processor Work vector matches an element-level
// recomputation and sums to the total work, and that the imbalance factor
// is well formed.
func TestStrategyInvariants(t *testing.T) {
	matrices := map[string]*sparse.Matrix{
		"grid5-6x6": gen.Grid5(6, 6),
		"grid9-8x8": gen.Grid9(8, 8),
		"fegrid5-5": gen.FEGrid5(5),
		"lap30":     gen.Lap30(),
	}
	for mname, m := range matrices {
		sys := newTestSys(t, m)
		for _, name := range Names() {
			for _, p := range []int{2, 4, 16} {
				sc, err := Map(name, sys, p, Options{})
				if err != nil {
					t.Fatalf("%s/%s P=%d: %v", name, mname, p, err)
				}
				checkSchedule(t, sys, sc, name+"/"+mname, p)
			}
		}
	}
}

func checkSchedule(t *testing.T, sys *Sys, sc *sched.Schedule, label string, p int) {
	t.Helper()
	if sc.P != p || len(sc.Work) != p {
		t.Fatalf("%s P=%d: schedule has P=%d, len(Work)=%d", label, p, sc.P, len(sc.Work))
	}
	if len(sc.ElemProc) != sys.F.NNZ() {
		t.Fatalf("%s P=%d: ElemProc covers %d nonzeros, factor has %d",
			label, p, len(sc.ElemProc), sys.F.NNZ())
	}
	perProc := make([]int64, p)
	for q, proc := range sc.ElemProc {
		if proc < 0 || int(proc) >= p {
			t.Fatalf("%s P=%d: element %d owned by out-of-range processor %d", label, p, q, proc)
		}
		perProc[proc] += sys.ElemWork[q]
	}
	var total int64
	for k := 0; k < p; k++ {
		if perProc[k] != sc.Work[k] {
			t.Fatalf("%s P=%d: Work[%d] = %d, element-level recomputation = %d",
				label, p, k, sc.Work[k], perProc[k])
		}
		total += sc.Work[k]
	}
	if total != sys.Total {
		t.Fatalf("%s P=%d: total scheduled work %d, want %d", label, p, total, sys.Total)
	}
	if a := sc.Imbalance(); a < 0 {
		t.Fatalf("%s P=%d: Imbalance() = %g < 0", label, p, a)
	}
	if e := sc.Efficiency(); e <= 0 || e > 1 {
		t.Fatalf("%s P=%d: Efficiency() = %g outside (0, 1]", label, p, e)
	}
}

// TestMoreProcsThanColumns is the P >= n regression test: every
// registered strategy must return a well-formed schedule (surplus
// processors simply idle) at P equal to, just above, and double the
// column count — the regime where naive splits produce empty parts or
// zero-width blocks. 2n exceeds 64 on the fixture, so the wide
// (map-based) traffic and fetch-attribution paths are exercised too. The
// usual invariants must keep holding: exact work conservation, in-range
// owners, fetch volumes partitioning the traffic total, and a zero comm
// model reproducing the compute-only dynamic simulation.
func TestMoreProcsThanColumns(t *testing.T) {
	sys := newTestSys(t, gen.Grid5(6, 6))
	n := sys.F.N
	// The loop below covers every registered strategy, but the
	// communication-optimal mappers are the ones whose splits degenerate
	// to empty blocks here (contigtotal's DP and rectilinear's probe both
	// pad trailing empty intervals); fail loudly if either ever
	// unregisters rather than silently losing the regression.
	for _, want := range []string{"contigtotal", "rectilinear"} {
		if _, ok := Lookup(want); !ok {
			t.Fatalf("strategy %q is not registered; the P >= n regression must cover it", want)
		}
	}
	for _, name := range Names() {
		for _, p := range []int{n, n + 1, 2 * n} {
			sc, err := Map(name, sys, p, Options{})
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			checkSchedule(t, sys, sc, name+"/overprovisioned", p)
			tc := FetchStats(sys, Options{}, sc)
			if got, want := tc.TotalVol(), Traffic(sys, Options{}, sc).Total; got != want {
				t.Errorf("%s P=%d: fetch volumes sum to %d, traffic total %d", name, p, got, want)
			}
			var zero exec.CommModel
			if got, want := simulate(sys, Options{}, sc, exec.SimOptions{Dynamic: true, Comm: zero}), simulate(sys, Options{}, sc, exec.SimOptions{Dynamic: true}); got != want {
				t.Errorf("%s P=%d: zero model dynamic %+v != compute-only %+v", name, p, got, want)
			}
		}
	}
}

// TestRelaxedPartitionStrategies exercises the relaxed-partition
// (RelaxZeros > 0) branches: block-based strategies map the padded
// factor, so schedules cover more nonzeros and more work than the
// analysis factor, and Traffic/Makespan must simulate against the padded
// structure.
func TestRelaxedPartitionStrategies(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(10, 10))
	opts := Options{Part: core.Options{Grain: 25, MinClusterWidth: 4, RelaxZeros: 0.25}}
	part := sys.Partition(opts.Part)
	if part.F == sys.F || part.Relax.PaddedNNZ == 0 {
		t.Fatalf("relaxation did not pad the factor (stats %v); pick a laxer setting", part.Relax)
	}
	for _, name := range []string{"block", "blockgreedy", "refine"} {
		const p = 4
		o := opts
		o.Base = "block"
		sc, err := Map(name, sys, p, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(sc.ElemProc) != part.F.NNZ() {
			t.Fatalf("%s relaxed: ElemProc covers %d nonzeros, padded factor has %d",
				name, len(sc.ElemProc), part.F.NNZ())
		}
		if got := sc.TotalWork(); got != part.TotalWork {
			t.Fatalf("%s relaxed: total scheduled work %d, want padded total %d",
				name, got, part.TotalWork)
		}
		tr := Traffic(sys, o, sc)
		if tr.P != p || tr.Total < 0 {
			t.Fatalf("%s relaxed: traffic result P=%d Total=%d", name, tr.P, tr.Total)
		}
		ms := simulate(sys, o, sc, exec.SimOptions{})
		if ms.TotalWork != part.TotalWork {
			t.Fatalf("%s relaxed: makespan total work %d, want %d", name, ms.TotalWork, part.TotalWork)
		}
	}
	// Refinement over the relaxed base never worsens the bottleneck.
	o := opts
	o.Base = "block"
	baseSc, err := Map("block", sys, 4, o)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Refine(sys, o, baseSc)
	if err != nil {
		t.Fatal(err)
	}
	if ref.MaxWork() > baseSc.MaxWork() {
		t.Errorf("relaxed refine: MaxWork %d > base %d", ref.MaxWork(), baseSc.MaxWork())
	}
}

// TestEvaluateOptsMismatch: evaluating a block-granular schedule with
// Options selecting a different partition must fail loudly, not index
// out of range or silently miscount.
func TestEvaluateOptsMismatch(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(8, 8))
	sc, err := Map("block", sys, 4, Options{Part: core.Options{Grain: 25}})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s with mismatched opts did not panic", name)
			} else if !strings.Contains(fmt.Sprint(r), "does not match") {
				t.Errorf("%s panic = %v, want a schedule/partition mismatch message", name, r)
			}
		}()
		fn()
	}
	mustPanic("Traffic", func() { Traffic(sys, Options{}, sc) })
	mustPanic("Tasks", func() { Tasks(sys, Options{}, sc) })
	mustPanic("FetchStats", func() { FetchStats(sys, Options{}, sc) })
}

// TestPartitionCacheNormalized: zero options and explicit defaults are
// the same partitioning and must share one cache entry.
func TestPartitionCacheNormalized(t *testing.T) {
	sys := newTestSys(t, gen.Grid5(6, 6))
	if sys.Partition(core.Options{}) != sys.Partition(core.Options{Grain: 4, MinClusterWidth: 4}) {
		t.Error("Partition(zero options) and Partition(explicit defaults) are distinct cache entries")
	}
}

// TestUnitGranularity checks that block-granular schedules keep UnitProc
// and ElemProc consistent and that simulators accept every strategy's
// schedule.
func TestSimulatorsAcceptAll(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(8, 8))
	opts := Options{}
	for _, name := range Names() {
		sc, err := Map(name, sys, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		tr := Traffic(sys, opts, sc)
		if tr.Total < 0 || tr.P != 4 {
			t.Errorf("%s: traffic result P=%d Total=%d", name, tr.P, tr.Total)
		}
		ms := simulate(sys, opts, sc, exec.SimOptions{})
		if ms.Efficiency <= 0 || ms.Efficiency > 1 {
			t.Errorf("%s: makespan efficiency %g outside (0, 1]", name, ms.Efficiency)
		}
		if ms.TotalWork != sys.Total {
			t.Errorf("%s: makespan total work %d, want %d", name, ms.TotalWork, sys.Total)
		}
	}
}
