package strategy

// The cross-simulator test harness of the communication-aware makespan
// model: every registered strategy, on generated-grid and Harwell-Boeing
// round-trip fixtures, must satisfy the properties that tie the three
// simulators (traffic, static makespan, dynamic makespan) together:
//
//   - conservation: per-task fetch volumes partition the traffic total;
//   - zero-cost regression: a zero CommModel reproduces the compute-only
//     simulators bit for bit;
//   - monotonicity and sanity: spans are non-decreasing in alpha and beta
//     and never below the compute-only span.

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/hbio"
	"repro/internal/sparse"
)

// commFixtures returns the harness matrices: a generated 9-point grid and
// an HB-style fixture (a finite-element mesh round-tripped through the
// Harwell-Boeing reader, exercising the same path real HB inputs take).
func commFixtures(t testing.TB) map[string]*sparse.Matrix {
	t.Helper()
	var buf bytes.Buffer
	if err := hbio.Write(&buf, gen.FEGrid5(5), "comm harness fixture", "FEG5"); err != nil {
		t.Fatal(err)
	}
	hb, _, err := hbio.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*sparse.Matrix{
		"grid9-8x8":  gen.Grid9(8, 8),
		"hb-fegrid5": hb,
	}
}

// commOpts returns per-strategy options worth covering, including a
// relaxed partition for the block family (schedules over a padded factor).
func commOpts(name string) []Options {
	opts := []Options{{}}
	switch name {
	case "block", "blockgreedy", "refine":
		opts = append(opts, Options{
			Part: core.Options{Grain: 25, MinClusterWidth: 4, RelaxZeros: 0.25},
			Base: "block",
		})
	case "blockcyclic":
		opts = append(opts, Options{BlockSize: 8})
	}
	return opts
}

// TestCommConservation: for every strategy x fixture x P, the per-task
// fetch volumes of FetchStats sum exactly to the simulated traffic total,
// and message counts are bounded by volumes and by P-1 sources per task.
func TestCommConservation(t *testing.T) {
	for mname, m := range commFixtures(t) {
		sys := newTestSys(t, m)
		for _, name := range Names() {
			for _, opts := range commOpts(name) {
				for _, p := range []int{2, 4, 16} {
					sc, err := Map(name, sys, p, opts)
					if err != nil {
						t.Fatalf("%s/%s P=%d: %v", name, mname, p, err)
					}
					tc := FetchStats(sys, opts, sc)
					if got, want := tc.TotalVol(), Traffic(sys, opts, sc).Total; got != want {
						t.Errorf("%s/%s P=%d: fetch volumes sum to %d, traffic total %d",
							name, mname, p, got, want)
					}
					if got, want := len(tc.Vol), len(Tasks(sys, opts, sc)); got != want {
						t.Errorf("%s/%s P=%d: stats cover %d tasks, graph has %d",
							name, mname, p, got, want)
					}
					for i := range tc.Vol {
						if tc.Msgs[i] > tc.Vol[i] || tc.Msgs[i] > int64(p-1) || tc.Vol[i] < 0 {
							t.Fatalf("%s/%s P=%d task %d: vol=%d msgs=%d out of bounds",
								name, mname, p, i, tc.Vol[i], tc.Msgs[i])
						}
					}
				}
			}
		}
	}
}

// TestCommZeroRegression: CommModel{0, 0} makespans equal the compute-only
// static and dynamic simulations exactly — every field, not just the span —
// for every registered strategy at P in {1, 4, 16}.
func TestCommZeroRegression(t *testing.T) {
	for mname, m := range commFixtures(t) {
		sys := newTestSys(t, m)
		for _, name := range Names() {
			for _, opts := range commOpts(name) {
				for _, p := range []int{1, 4, 16} {
					sc, err := Map(name, sys, p, opts)
					if err != nil {
						t.Fatalf("%s/%s P=%d: %v", name, mname, p, err)
					}
					var zero exec.CommModel
					if got, want := simulate(sys, opts, sc, exec.SimOptions{Comm: zero}), simulate(sys, opts, sc, exec.SimOptions{}); got != want {
						t.Errorf("%s/%s P=%d static: zero model %+v != compute-only %+v",
							name, mname, p, got, want)
					}
					if got, want := simulate(sys, opts, sc, exec.SimOptions{Dynamic: true, Comm: zero}), simulate(sys, opts, sc, exec.SimOptions{Dynamic: true}); got != want {
						t.Errorf("%s/%s P=%d dynamic: zero model %+v != compute-only %+v",
							name, mname, p, got, want)
					}
				}
			}
		}
	}
}

// TestCommMonotonicity: the comm-aware makespan is non-decreasing in alpha
// and in beta, never below the compute-only makespan, and the comm time
// reported matches between static and dynamic runs of the same model.
func TestCommMonotonicity(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(8, 8))
	const p = 4
	for _, name := range Names() {
		sc, err := Map(name, sys, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		base := simulate(sys, Options{}, sc, exec.SimOptions{})
		baseDy := simulate(sys, Options{}, sc, exec.SimOptions{Dynamic: true})
		prevSt, prevDy := int64(-1), int64(-1)
		for _, a := range []float64{0, 0.5, 1, 2, 5} {
			cm := exec.CommModel{Alpha: a, Beta: 2}
			st := simulate(sys, Options{}, sc, exec.SimOptions{Comm: cm})
			dy := simulate(sys, Options{}, sc, exec.SimOptions{Dynamic: true, Comm: cm})
			if st.Makespan < base.Makespan || dy.Makespan < baseDy.Makespan {
				t.Errorf("%s alpha=%g: comm-aware span below compute-only (static %d<%d or dynamic %d<%d)",
					name, a, st.Makespan, base.Makespan, dy.Makespan, baseDy.Makespan)
			}
			if st.Makespan < prevSt {
				t.Errorf("%s alpha=%g: static span %d decreased from %d", name, a, st.Makespan, prevSt)
			}
			if dy.Makespan < prevDy {
				t.Errorf("%s alpha=%g: dynamic span %d decreased from %d", name, a, dy.Makespan, prevDy)
			}
			if st.Comm != dy.Comm {
				t.Errorf("%s alpha=%g: static comm %d != dynamic comm %d", name, a, st.Comm, dy.Comm)
			}
			prevSt, prevDy = st.Makespan, dy.Makespan
		}
		prevSt = -1
		for _, b := range []float64{0, 1, 5, 20} {
			cm := exec.CommModel{Alpha: 1, Beta: b}
			st := simulate(sys, Options{}, sc, exec.SimOptions{Comm: cm})
			if st.Makespan < prevSt {
				t.Errorf("%s beta=%g: static span %d decreased from %d", name, b, st.Makespan, prevSt)
			}
			prevSt = st.Makespan
		}
	}
}

// TestCommSpanBounds: under any cost model, both simulators stay within
// the classical list-scheduling envelope — at least the critical path of
// the inflated graph and the perfect-balance bound ceil(W/P), at most the
// serialized total W. (Strict dynamic <= static holds only on DAGs with
// recoverable slack — see exec's TestCommDynamicSlackDAG; on full
// factorization graphs the critical-path priority can lose a few percent
// to the scan order, the classical list-scheduling anomaly.)
func TestCommSpanBounds(t *testing.T) {
	for mname, m := range commFixtures(t) {
		sys := newTestSys(t, m)
		for _, name := range Names() {
			for _, p := range []int{4, 16} {
				sc, err := Map(name, sys, p, Options{})
				if err != nil {
					t.Fatal(err)
				}
				tc := FetchStats(sys, Options{}, sc)
				for _, cm := range []exec.CommModel{{}, {Alpha: 2, Beta: 10}} {
					inflated := append([]exec.Task(nil), Tasks(sys, Options{}, sc)...)
					for i := range inflated {
						inflated[i].Work += cm.Cost(tc.Vol[i], tc.Msgs[i])
					}
					cp := exec.CriticalPath(inflated)
					var w int64
					for _, tk := range inflated {
						w += tk.Work
					}
					lower := cp
					if bal := (w + int64(p) - 1) / int64(p); bal > lower {
						lower = bal
					}
					st := simulate(sys, Options{}, sc, exec.SimOptions{Comm: cm})
					dy := simulate(sys, Options{}, sc, exec.SimOptions{Dynamic: true, Comm: cm})
					for _, r := range []struct {
						kind string
						res  exec.SimResult
					}{{"static", st}, {"dynamic", dy}} {
						if r.res.Makespan < lower || r.res.Makespan > w {
							t.Errorf("%s/%s P=%d model %+v %s: span %d outside [%d, %d]",
								name, mname, p, cm, r.kind, r.res.Makespan, lower, w)
						}
						if r.res.TotalWork != w {
							t.Errorf("%s/%s P=%d model %+v %s: total work %d, inflated graph has %d",
								name, mname, p, cm, r.kind, r.res.TotalWork, w)
						}
					}
				}
			}
		}
	}
}
