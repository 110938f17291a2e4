package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tables"
)

// TestValidateRepeats pins the fail-fast -repeats gate: zero and negative
// counts are rejected with the offending value in the message, valid
// counts pass. The check runs unconditionally at startup, so a bad
// -repeats dies before any table work even when no timed table is selected.
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
// against its registry, and a -repeats the timed tables cannot honour by
// its range, before the suite is loaded, and leaves no output file behind.
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
		{[]string{"-table", "measure", "-repeats", "0", "-ledger", ledger}, "invalid -repeats 0", ""},
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

// timedRows keeps the rows of a timed table (the lines that start with
// the matrix name) as comma-joined picks of their 1-based
// whitespace-separated fields, sorted: the text tables run P-major where
// cmd/sweep's series run label-major.
func timedRows(text string, keep ...int) []string {
	var rows []string
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "LAP30" {
			continue
		}
		var kept []string
		for _, k := range keep {
			kept = append(kept, fields[k-1])
		}
		rows = append(rows, strings.Join(kept, ","))
	}
	slices.Sort(rows)
	return rows
}

// TestTimedTables pins the two tables that run the real engine. They are
// registry entries like any other study, flagged so -table all leaves
// them out (TestTableAllGolden holds -table all to its pre-change bytes),
// and what they print is deterministic where cmd/sweep's measured series
// are: the (label, P) axis with the predicted span and traffic of
// measure and the uncalibrated predicted speedup of calibrate, checked
// against sweep's own column goldens (calibrate prints two decimals of
// the golden's four).
func TestTimedTables(t *testing.T) {
	var timed []string
	for _, e := range registry {
		if e.timed {
			timed = append(timed, e.name)
		}
	}
	if !slices.Equal(timed, []string{"measure", "calibrate"}) {
		t.Fatalf("timed tables %v, want measure and calibrate", timed)
	}
	if testing.Short() {
		t.Skip("real measured runs on LAP30")
	}
	golden := func(kind string) []string {
		data, err := os.ReadFile(filepath.Join("..", "sweep", "testdata", "lap30_"+kind+".cols.csv"))
		if err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")[1:]
		slices.Sort(rows)
		return rows
	}
	table := func(name string) string {
		var stdout bytes.Buffer
		if err := run([]string{"-table", name, "-repeats", "1"}, &stdout, io.Discard); err != nil {
			t.Fatal(err)
		}
		return stdout.String()
	}

	// Appl P Strategy Serial Parallel Speedup PredSpeedup PredSpan Traffic
	out := table("measure")
	if got, want := timedRows(out, 3, 2, 8, 9), golden("measure"); !slices.Equal(got, want) {
		t.Errorf("-table measure deterministic columns drifted from sweep's golden:\n got %v\nwant %v\n%s", got, want, out)
	}

	// Appl P Strategy Measured Uncal Cal Speedup UncalPred CalPred Degenerate
	out = table("calibrate")
	got, want := timedRows(out, 3, 2, 8), golden("calibrate")
	if len(got) != len(want) {
		t.Fatalf("-table calibrate has %d rows, sweep's golden %d:\n%s", len(got), len(want), out)
	}
	pred := func(row string) (axis string, v float64) {
		i := strings.LastIndex(row, ",")
		v, err := strconv.ParseFloat(row[i+1:], 64)
		if err != nil {
			t.Fatalf("row %q: %v", row, err)
		}
		return row[:i], v
	}
	for i := range got {
		gAxis, g := pred(got[i])
		wAxis, w := pred(want[i])
		if gAxis != wAxis || math.Abs(g-w) > 0.005+1e-9 {
			t.Errorf("-table calibrate row %q, sweep's golden %q", got[i], want[i])
		}
	}
	if !strings.Contains(out, "speedup MAPE: uncalibrated ") {
		t.Errorf("-table calibrate lost its MAPE footer:\n%s", out)
	}
}
