package obs_test

// Profile reconciliation: BuildProfile must conserve time exactly against
// the SimResult it aggregates — per processor and in total — and its
// critical path must be a time-contiguous chain from t = 0 to the
// makespan. The tests run the real simulators on a real factorization
// fixture, then pin the error paths on hand-built event sets.

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/strategy"
	"repro/internal/symbolic"
)

// newSys runs the analysis pipeline on a matrix (the same helper idiom as
// the strategy and part2d test harnesses).
func newSys(t testing.TB, m *sparse.Matrix) *strategy.Sys {
	t.Helper()
	perm := order.MMD(m)
	pm, err := m.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	return strategy.NewSys(symbolic.Analyze(pm), nil, nil)
}

// tracedRun maps a strategy and runs one simulator variant with a Tracer.
func tracedRun(t *testing.T, sys *strategy.Sys, name string, p int, kind string, cm exec.CommModel) (exec.SimResult, []exec.TaskEvent) {
	t.Helper()
	sc, err := strategy.Map(name, sys, p, strategy.Options{})
	if err != nil {
		t.Fatalf("%s P=%d: %v", name, p, err)
	}
	tr := obs.NewTracer()
	tc := strategy.FetchStats(sys, strategy.Options{}, sc)
	o := exec.SimOptions{Probe: tr, Vol: tc.Vol, Msgs: tc.Msgs}
	switch kind {
	case "dynamic":
		o.Dynamic = true
	case "comm":
		o.Comm = cm
	case "commdynamic":
		o.Dynamic, o.Comm = true, cm
	}
	res := exec.Simulate(strategy.Tasks(sys, strategy.Options{}, sc), p, o)
	return res, tr.Events
}

// TestProfileReconciliation: for every strategy x simulator x P, the
// profile totals reconcile with the SimResult exactly — Busy+Comm ==
// TotalWork, Comm == Comm, Idle == Idle, Busy+Comm+Idle == Makespan on
// every processor with Stall within Idle — and the critical path is a
// contiguous chain whose durations sum to the makespan.
func TestProfileReconciliation(t *testing.T) {
	sys := newSys(t, gen.Grid9(8, 8))
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	for _, name := range strategy.Names() {
		for _, kind := range []string{"static", "dynamic", "comm", "commdynamic"} {
			for _, p := range []int{1, 4, 16} {
				res, events := tracedRun(t, sys, name, p, kind, cm)
				prof, err := obs.BuildProfile(events, res)
				if err != nil {
					t.Fatalf("%s/%s P=%d: %v", name, kind, p, err)
				}
				label := name + "/" + kind
				if prof.P != res.P || prof.Makespan != res.Makespan {
					t.Fatalf("%s P=%d: profile header %d/%d != result %d/%d",
						label, p, prof.P, prof.Makespan, res.P, res.Makespan)
				}
				if got := prof.Busy() + prof.Comm(); got != res.TotalWork {
					t.Errorf("%s P=%d: busy+comm %d != TotalWork %d", label, p, got, res.TotalWork)
				}
				if prof.Comm() != res.Comm {
					t.Errorf("%s P=%d: comm %d != SimResult.Comm %d", label, p, prof.Comm(), res.Comm)
				}
				if prof.Idle() != res.Idle {
					t.Errorf("%s P=%d: idle %d != SimResult.Idle %d", label, p, prof.Idle(), res.Idle)
				}
				tasks := 0
				for i := range prof.Procs {
					pp := &prof.Procs[i]
					tasks += pp.Tasks
					if pp.Busy+pp.Comm+pp.Idle != prof.Makespan {
						t.Errorf("%s P=%d proc %d: busy %d + comm %d + idle %d != makespan %d",
							label, p, pp.Proc, pp.Busy, pp.Comm, pp.Idle, prof.Makespan)
					}
					if pp.Stall < 0 || pp.Stall > pp.Idle {
						t.Errorf("%s P=%d proc %d: stall %d outside [0, idle %d]",
							label, p, pp.Proc, pp.Stall, pp.Idle)
					}
				}
				if tasks != len(events) {
					t.Errorf("%s P=%d: per-proc task counts sum to %d, %d events", label, p, tasks, len(events))
				}
				checkCritical(t, label, p, prof)
			}
		}
	}
}

// checkCritical pins the critical-path contract: a chain starting at
// t = 0 with a "start" edge, each later link beginning exactly at its
// predecessor's finish via a "processor" or "dependency" edge, ending at
// the makespan, with durations summing to it.
func checkCritical(t *testing.T, label string, p int, prof *obs.Profile) {
	t.Helper()
	cp := prof.Critical
	if len(cp) == 0 {
		if prof.Makespan != 0 {
			t.Errorf("%s P=%d: empty critical path with makespan %d", label, p, prof.Makespan)
		}
		return
	}
	if cp[0].Start != 0 || cp[0].Edge != "start" {
		t.Errorf("%s P=%d: critical head starts at %d with edge %q, want 0/start",
			label, p, cp[0].Start, cp[0].Edge)
	}
	for i := 1; i < len(cp); i++ {
		if cp[i].Start != cp[i-1].Finish {
			t.Errorf("%s P=%d: critical link %d starts at %d, predecessor finishes at %d",
				label, p, i, cp[i].Start, cp[i-1].Finish)
		}
		if cp[i].Edge != "processor" && cp[i].Edge != "dependency" {
			t.Errorf("%s P=%d: critical link %d edge %q", label, p, i, cp[i].Edge)
		}
	}
	if last := cp[len(cp)-1]; last.Finish != prof.Makespan {
		t.Errorf("%s P=%d: critical path ends at %d, makespan %d", label, p, last.Finish, prof.Makespan)
	}
	if got := prof.CriticalWork() + prof.CriticalComm(); got != prof.Makespan {
		t.Errorf("%s P=%d: critical work+comm %d != makespan %d", label, p, got, prof.Makespan)
	}
}

// TestBuildProfileEmpty: no events and a zero result is legal (an empty
// task list) and yields an all-zero profile with no critical path.
func TestBuildProfileEmpty(t *testing.T) {
	prof, err := obs.BuildProfile(nil, exec.SimResult{P: 2, Efficiency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Busy() != 0 || prof.Idle() != 0 || len(prof.Critical) != 0 || prof.IdleGaps.Count != 0 {
		t.Errorf("empty profile not all-zero: %+v", prof)
	}
}

// TestBuildProfileErrors pins the malformed-input diagnostics.
func TestBuildProfileErrors(t *testing.T) {
	cases := []struct {
		name   string
		events []exec.TaskEvent
		res    exec.SimResult
		want   string
	}{
		{"processor out of range",
			[]exec.TaskEvent{{Task: 0, Proc: 5, Finish: 4, Work: 4, Cause: -1}},
			exec.SimResult{P: 2, Makespan: 4}, "processor"},
		{"duration mismatch",
			[]exec.TaskEvent{{Task: 0, Proc: 0, Finish: 5, Work: 3, Comm: 1, Cause: -1}},
			exec.SimResult{P: 1, Makespan: 5}, "duration"},
		{"cyclic cause chain",
			[]exec.TaskEvent{
				{Task: 0, Proc: 0, Start: 5, Finish: 10, Work: 5, Stall: 5, Cause: 1},
				{Task: 1, Proc: 1, Start: 5, Finish: 10, Work: 5, Stall: 5, Cause: 0},
			},
			exec.SimResult{P: 2, Makespan: 10}, "terminate"},
		{"missing cause event",
			[]exec.TaskEvent{{Task: 1, Proc: 0, Start: 6, Finish: 9, Work: 3, Stall: 6, Cause: 0}},
			exec.SimResult{P: 1, Makespan: 9}, "no event"},
		{"head off origin",
			[]exec.TaskEvent{{Task: 0, Proc: 0, Start: 3, Finish: 7, Work: 4, Cause: -1}},
			exec.SimResult{P: 1, Makespan: 7}, "want 0"},
	}
	for _, tc := range cases {
		_, err := obs.BuildProfile(tc.events, tc.res)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestHistogram: power-of-two bucketing, non-positive values ignored, and
// a renderable summary.
func TestHistogram(t *testing.T) {
	var h obs.Histogram
	h.Add(0)
	h.Add(-3)
	if h.Count != 0 {
		t.Fatalf("non-positive values counted: %+v", h)
	}
	for _, v := range []int64{1, 1, 3, 8, 9, 15, 1000} {
		h.Add(v)
	}
	if h.Count != 7 || h.Sum != 1+1+3+8+9+15+1000 || h.Max != 1000 {
		t.Errorf("summary fields wrong: %+v", h)
	}
	// Buckets: [1,2): two 1s; [2,4): 3; [8,16): 8, 9, 15; [512,1024): 1000.
	wantBuckets := map[int]int64{0: 2, 1: 1, 3: 3, 9: 1}
	for k, want := range wantBuckets {
		if k >= len(h.Buckets) || h.Buckets[k] != want {
			t.Errorf("bucket %d = %v, want %d (buckets %v)", k, nil, want, h.Buckets)
		}
	}
	if s := h.String(); !strings.Contains(s, "7 gaps") || !strings.Contains(s, "#") {
		t.Errorf("histogram render: %q", s)
	}
	var empty obs.Histogram
	if s := empty.String(); !strings.Contains(s, "no idle gaps") {
		t.Errorf("empty histogram render: %q", s)
	}
}

// TestFormatProfile smoke-checks the terminal report on a real run.
func TestFormatProfile(t *testing.T) {
	sys := newSys(t, gen.Grid9(6, 6))
	res, events := tracedRun(t, sys, "wrap", 4, "commdynamic", exec.CommModel{Alpha: 2, Beta: 10})
	prof, err := obs.BuildProfile(events, res)
	if err != nil {
		t.Fatal(err)
	}
	out := obs.FormatProfile(prof)
	for _, want := range []string{"P=4", "busy", "critical path:", "idle gaps:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
