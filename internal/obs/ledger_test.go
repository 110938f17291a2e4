package obs_test

// Bench-ledger and search-telemetry tests: the ledger round-trips through
// its own validator (the CI gate) and the validator rejects each
// malformed shape with a useful message; SearchTelemetry is nil-safe,
// counts trials consistently, and — attached to the real searches — never
// perturbs the mapping it observes.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/part2d"
	"repro/internal/strategy"
)

func TestLedgerRoundTrip(t *testing.T) {
	l := obs.NewLedger()
	sum := obs.ProfileSummary{Busy: 90, Comm: 10, Idle: 20, Stall: 5, CriticalLen: 3, CriticalWork: 25, CriticalComm: 5}
	l.Add(obs.BenchRecord{
		Matrix: "LAP30", Strategy: "wrap", Kind: "strategy", P: 4,
		Alpha: 2, Beta: 10, Makespan: 30, Traffic: 50, Efficiency: 0.83,
		Profile: &sum,
	})
	var buf bytes.Buffer
	if err := l.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateLedger(buf.Bytes()); err != nil {
		t.Errorf("round-tripped ledger rejected: %v", err)
	}
	if !strings.Contains(buf.String(), obs.LedgerSchema) {
		t.Errorf("serialized ledger missing schema tag %q", obs.LedgerSchema)
	}
}

func TestValidateLedgerRejects(t *testing.T) {
	cases := []struct {
		name, data, want string
	}{
		{"not json", "{", "not valid JSON"},
		{"wrong schema", `{"schema":"repro-bench/v0","records":[{}]}`, "schema"},
		{"no records array", `{"schema":"repro-bench/v2"}`, "no records"},
		{"zero records", `{"schema":"repro-bench/v2","records":[]}`, "zero records"},
		{"record not object", `{"schema":"repro-bench/v2","records":[3]}`, "not an object"},
		{"missing keys", `{"schema":"repro-bench/v2","records":[{"matrix":"X","p":4}]}`, "missing keys"},
	}
	for _, tc := range cases {
		err := obs.ValidateLedger([]byte(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestSearchTelemetryNil: every method is a no-op on a nil collector —
// the disabled path instrumented searches take unconditionally.
func TestSearchTelemetryNil(t *testing.T) {
	var tel *obs.SearchTelemetry
	tel.Trial(true)
	tel.Trial(false)
	tel.Objective(42)
}

func TestSearchTelemetryCounts(t *testing.T) {
	tel := &obs.SearchTelemetry{}
	tel.Objective(100)
	tel.Trial(true)
	tel.Objective(90)
	tel.Trial(false)
	tel.Trial(true)
	tel.Objective(85)
	if tel.Trials != 3 || tel.Accepted != 2 || tel.Rejected != 1 {
		t.Errorf("counters = %d/%d/%d, want 3/2/1", tel.Trials, tel.Accepted, tel.Rejected)
	}
	if got := tel.Trajectory; len(got) != 3 || got[0] != 100 || got[2] != 85 {
		t.Errorf("trajectory = %v", got)
	}
}

// TestSearchTelemetryAttached runs the instrumented searches for real:
// counters must be consistent (Trials == Accepted + Rejected), the
// trajectory must start with the initial objective and improve
// monotonically where the search is strictly improving, and attaching a
// collector must not change the mapping produced.
func TestSearchTelemetryAttached(t *testing.T) {
	sys := newSys(t, gen.Grid9(8, 8))
	const p = 4
	for _, name := range []string{"refine", "contigtotal"} {
		tel := &obs.SearchTelemetry{}
		scT, err := strategy.Map(name, sys, p, strategy.Options{Search: tel})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sc, err := strategy.Map(name, sys, p, strategy.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tel.Trials != tel.Accepted+tel.Rejected {
			t.Errorf("%s: trials %d != accepted %d + rejected %d", name, tel.Trials, tel.Accepted, tel.Rejected)
		}
		if len(tel.Trajectory) == 0 {
			t.Errorf("%s: no objective trajectory recorded", name)
		}
		got := exec.Simulate(strategy.Tasks(sys, strategy.Options{}, scT), p, exec.SimOptions{})
		want := exec.Simulate(strategy.Tasks(sys, strategy.Options{}, sc), p, exec.SimOptions{})
		if got != want {
			t.Errorf("%s: telemetry perturbed the mapping: %+v != %+v", name, got, want)
		}
	}

	// The rect2d ownership descent: a strictly-improving traffic search,
	// so the trajectory is non-increasing.
	tel := &obs.SearchTelemetry{}
	s2T, err := part2d.Map2D("rect2d", sys, p, strategy.Options{Search: tel})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := part2d.Map2D("rect2d", sys, p, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tel.Trials != tel.Accepted+tel.Rejected {
		t.Errorf("rect2d: trials %d != accepted %d + rejected %d", tel.Trials, tel.Accepted, tel.Rejected)
	}
	if len(tel.Trajectory) == 0 {
		t.Error("rect2d: no objective trajectory recorded")
	}
	for i := 1; i < len(tel.Trajectory); i++ {
		if tel.Trajectory[i] > tel.Trajectory[i-1] {
			t.Errorf("rect2d: trajectory rose at %d: %v", i, tel.Trajectory)
		}
	}
	tasksT, _ := part2d.Tasks(sys.Ops, sys.ElemWork, s2T)
	tasks, _ := part2d.Tasks(sys.Ops, sys.ElemWork, s2)
	got := exec.Simulate(tasksT, p, exec.SimOptions{})
	want := exec.Simulate(tasks, p, exec.SimOptions{})
	if got != want {
		t.Errorf("rect2d: telemetry perturbed the mapping: %+v != %+v", got, want)
	}
}
