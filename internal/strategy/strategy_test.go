package strategy

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/model"
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

// TestRegistry holds the strategy and refine-objective tables to the
// shipped lists: sorted, unique, and every name listed by the error an
// unknown name gets.
func TestRegistry(t *testing.T) {
	sys := newTestSys(t, gen.Grid5(4, 4))
	for _, tc := range []struct {
		table   string
		names   []string
		want    []string
		unknown func() error
	}{
		{"strategies", Names(),
			[]string{"block", "blockcyclic", "blockgreedy", "contigtotal", "contiguous",
				"rectilinear", "refine", "subcube", "wrap"},
			func() error { _, err := Map("no-such-strategy", sys, 4, Options{}); return err }},
		{"objectives", Objectives(),
			[]string{"commspan", "imbalance", "traffic"},
			func() error {
				_, err := Map("refine", sys, 4, Options{Objective: "no-such-objective"})
				return err
			}},
	} {
		if !slices.Equal(tc.names, tc.want) {
			t.Errorf("%s: names %v, want %v", tc.table, tc.names, tc.want)
		}
		for i := 1; i < len(tc.names); i++ {
			if tc.names[i-1] >= tc.names[i] {
				t.Errorf("%s: names not sorted and unique: %v", tc.table, tc.names)
			}
		}
		list := "(registered: " + strings.Join(tc.want, ", ") + ")"
		if err := tc.unknown(); err == nil || !strings.HasSuffix(err.Error(), list) {
			t.Errorf("%s: unknown-name error %v, want one ending %s", tc.table, err, list)
		}
	}
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

// elemOwners is the owner of every element of sc.F, read column by column.
func elemOwners(sc *sched.Schedule) []int32 {
	var out []int32
	for j := 0; j < sc.F.N; j++ {
		out = sc.AppendOwners(out, j)
	}
	return out
}

func checkSchedule(t *testing.T, sys *Sys, sc *sched.Schedule, label string, p int) {
	t.Helper()
	if sc.P != p || len(sc.Work) != p {
		t.Fatalf("%s P=%d: schedule has P=%d, len(Work)=%d", label, p, sc.P, len(sc.Work))
	}
	owners := elemOwners(sc)
	if len(owners) != sys.F.NNZ() {
		t.Fatalf("%s P=%d: element owners cover %d nonzeros, factor has %d",
			label, p, len(owners), sys.F.NNZ())
	}
	perProc := make([]int64, p)
	for q, proc := range owners {
		if proc < 0 || int(proc) >= p {
			t.Fatalf("%s P=%d: element %d owned by out-of-range processor %d", label, p, q, proc)
		}
		perProc[proc] += int64(sys.ElemWork[q])
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
		if !slices.Contains(Names(), want) {
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
		if n := len(elemOwners(sc)); sc.F != part.F || n != part.F.NNZ() {
			t.Fatalf("%s relaxed: element owners cover %d nonzeros, padded factor has %d",
				name, n, part.F.NNZ())
		}
		if got := model.TotalWork(sc.Work); got != part.TotalWork {
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
	ref, err := refineFrom(sys, o, baseSc)
	if err != nil {
		t.Fatal(err)
	}
	if ref.MaxWork() > baseSc.MaxWork() {
		t.Errorf("relaxed refine: MaxWork %d > base %d", ref.MaxWork(), baseSc.MaxWork())
	}
}

// TestEvaluateOptsMismatch: a schedule carries the structure it assigns,
// so Tasks, FetchStats and Traffic of a relaxed block schedule called with
// Options selecting another partition return exactly what they return
// with the Options it was mapped with.
func TestEvaluateOptsMismatch(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(12, 12))
	opts := Options{Part: core.Options{Grain: 25, RelaxZeros: 0.3}}
	sc, err := Map("block", sys, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sc.F == sys.F {
		t.Fatal("relaxation did not pad the grid; the case compares nothing")
	}
	for _, other := range []Options{{}, {Part: core.Options{Grain: 4, RelaxZeros: 0.1}}} {
		if got, want := Tasks(sys, other, sc), Tasks(sys, opts, sc); !reflect.DeepEqual(got, want) {
			t.Errorf("Tasks with %+v differs from Tasks with the mapping options", other.Part)
		}
		if got, want := FetchStats(sys, other, sc), FetchStats(sys, opts, sc); !reflect.DeepEqual(got, want) {
			t.Errorf("FetchStats with %+v differs from FetchStats with the mapping options", other.Part)
		}
		if got, want := Traffic(sys, other, sc), Traffic(sys, opts, sc); !reflect.DeepEqual(got, want) {
			t.Errorf("Traffic with %+v differs from Traffic with the mapping options", other.Part)
		}
	}
	if got, want := FetchStats(sys, Options{}, sc).TotalVol(), Traffic(sys, opts, sc).Total; got != want {
		t.Errorf("FetchStats volumes sum to %d, Traffic total %d", got, want)
	}
}

// TestPartitionCacheNormalized: zero options and explicit defaults are
// the same partitioning and must share one cache entry.
func TestPartitionCacheNormalized(t *testing.T) {
	sys := newTestSys(t, gen.Grid5(6, 6))
	if sys.Partition(core.Options{}) != sys.Partition(core.Options{Grain: 4, MinClusterWidth: 4}) {
		t.Error("Partition(zero options) and Partition(explicit defaults) are distinct cache entries")
	}
}

// TestSimulatorsAcceptAll checks that the traffic and makespan simulators
// accept every strategy's schedule.
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

// TestNewSysRejectsForeignWork: a wide work vector handed to NewSys must
// cover the factor's elements, each with a value an element's work can
// take, [1, 2³² − 1]. Otherwise NewSys panics naming the lengths or the
// first bad position, instead of summing a foreign vector into Total and
// failing later in a mapper. A vector that fits narrows to the same
// values and total.
func TestNewSysRejectsForeignWork(t *testing.T) {
	base := newTestSys(t, gen.Lap30())
	wide := make([]int64, len(base.ElemWork))
	for q, w := range base.ElemWork {
		wide[q] = int64(w)
	}
	set := func(q int, v int64) []int64 {
		w := slices.Clone(wide)
		w[q] = v
		return w
	}
	for _, c := range []struct {
		name string
		work []int64
		msg  string
	}{
		{"short", wide[:10], "covers 10 elements, factor has 16829"},
		{"long", append(slices.Clone(wide), 1), "covers 16830 elements, factor has 16829"},
		{"zero", set(5, 0), "element work 0 at position 5"},
		{"negative", set(7, -1), "element work -1 at position 7"},
		{"2^32", set(9, 1<<32), "element work 4294967296 at position 9"},
	} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, c.msg) {
					t.Errorf("%s: NewSys panicked with %v, want a message containing %q", c.name, r, c.msg)
				}
			}()
			NewSys(base.F, base.Ops, c.work)
		}()
	}
	sys := NewSys(base.F, base.Ops, set(3, 1<<32-1))
	if sys.ElemWork[3] != 1<<32-1 || !slices.Equal(sys.ElemWork[4:], base.ElemWork[4:]) {
		t.Fatal("NewSys changed the values of a vector that fits")
	}
	if sys = NewSys(base.F, base.Ops, wide); sys.Total != base.Total || !slices.Equal(sys.ElemWork, base.ElemWork) {
		t.Fatalf("narrowed work totals %d, the analysis' %d", sys.Total, base.Total)
	}
}
