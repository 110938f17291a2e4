package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/tables"
)

// TestValidateRepeats pins the fail-fast -repeats gate: zero and negative
// counts are rejected with the offending value in the message, valid
// counts pass. The check runs unconditionally at startup, so a bad
// -repeats dies before any table work even without -measure/-calibrate.
func TestValidateRepeats(t *testing.T) {
	for _, r := range []int{0, -1, -100} {
		err := validateRepeats(r)
		if err == nil {
			t.Errorf("validateRepeats(%d) accepted", r)
			continue
		}
		if !strings.Contains(err.Error(), "-repeats") {
			t.Errorf("validateRepeats(%d) error %q does not name the flag", r, err)
		}
	}
	for _, r := range []int{1, 2, 100} {
		if err := validateRepeats(r); err != nil {
			t.Errorf("validateRepeats(%d) = %v, want nil", r, err)
		}
	}
}

// TestTableAllGolden pins `paperbench -table all` byte for byte against
// the output of the commit before the -table registry existed, driven
// through the same function main calls.
func TestTableAllGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "table_all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run([]string{"-table", "all"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d drifted from testdata/table_all.golden:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, golden %d", len(gl), len(wl))
	}
}

// TestRejectsBeforeLoading pins the fail-fast contract: an unknown -table
// (usage and exit 2), -matrix, trace strategy or trace format is refused
// against its registry before the suite is loaded, and leaves no output
// file behind.
func TestRejectsBeforeLoading(t *testing.T) {
	calls := 0
	real := loadSuite
	loadSuite = func() ([]*tables.Problem, error) {
		calls++
		return nil, errors.New("the suite loader ran")
	}
	t.Cleanup(func() { loadSuite = real })
	ledger := filepath.Join(t.TempDir(), "l.json")
	for _, tc := range []struct {
		args          []string
		want, onError string
	}{
		{[]string{"-table", "bogus", "-ledger", ledger}, "usage", `unknown table "bogus"` + "\nUsage of "},
		{[]string{"-table", "none", "-matrix", "NOPE", "-ledger", ledger}, `unknown matrix "NOPE"`, ""},
		{[]string{"-table", "none", "-trace", ledger, "-tracestrategy", "col2d:block"}, `unknown trace strategy "col2d:block"`, ""},
		{[]string{"-table", "none", "-trace", ledger, "-traceformat", "svg"}, `unknown trace format "svg"`, ""},
	} {
		var stderr bytes.Buffer
		err := run(tc.args, io.Discard, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("paperbench %v: error %v, want %q", tc.args, err, tc.want)
		}
		if (tc.want == "usage") != errors.Is(err, errUsage) {
			t.Errorf("paperbench %v: errUsage = %v", tc.args, errors.Is(err, errUsage))
		}
		if !strings.HasPrefix(stderr.String(), tc.onError) {
			t.Errorf("paperbench %v: stderr %q, want prefix %q", tc.args, stderr.String(), tc.onError)
		}
	}
	if calls != 0 {
		t.Errorf("rejected flags reached the suite loader %d times", calls)
	}
	if _, err := os.Stat(ledger); !os.IsNotExist(err) {
		t.Errorf("a rejected run created its output file (stat: %v)", err)
	}
}

// TestMeasureAndCalibrateShareOnePass runs the CI bench-smoke invocation:
// -measure and -calibrate together time the engine grid once, so the
// measure and calibrate ledger rows of a cell carry the same wall clock,
// and the smoke ledger passes its own gate.
func TestMeasureAndCalibrateShareOnePass(t *testing.T) {
	if testing.Short() {
		t.Skip("real measured runs on LAP30")
	}
	path := filepath.Join(t.TempDir(), "BENCH_smoke.json")
	args := []string{"-table", "none", "-matrix", "LAP30", "-measure", "-calibrate", "-repeats", "1", "-ledger", path}
	if err := run(args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := repro.ValidateLedger(data); err != nil {
		t.Fatal(err)
	}
	var ledger repro.Ledger
	if err := json.Unmarshal(data, &ledger); err != nil {
		t.Fatal(err)
	}
	type key struct {
		strategy string
		p        int
	}
	measured := make(map[key]repro.BenchRecord)
	for _, r := range ledger.Records {
		if r.Kind == "measure" {
			measured[key{r.Strategy, r.P}] = r
		}
	}
	calibrated := 0
	for _, r := range ledger.Records {
		if r.Kind != "calibrate" {
			continue
		}
		calibrated++
		m, ok := measured[key{r.Strategy, r.P}]
		if !ok || m.SerialNs != r.SerialNs || m.MeasuredNs != r.MeasuredNs || m.Traffic != r.Traffic {
			t.Errorf("%s P=%d: calibrate row %+v does not describe the measure row's execution %+v", r.Strategy, r.P, r, m)
		}
	}
	if want := len(tables.Labels2D()) * len(tables.MeasureProcs); calibrated != want || len(measured) != want {
		t.Errorf("%d measure and %d calibrate rows, want %d each", len(measured), calibrated, want)
	}
}
