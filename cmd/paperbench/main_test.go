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
		{[]string{"-table", "unified", "-alpha", "NaN", "-ledger", ledger}, "-alpha/-beta: invalid CommModel: Alpha = NaN", ""},
		{[]string{"-table", "unified", "-beta", "-5"}, "-alpha/-beta: invalid CommModel: Beta = -5", ""},
		{[]string{"-table", "unified", "-alpha", "+Inf"}, "-alpha/-beta: invalid CommModel: Alpha = +Inf", ""},
		// The deleted studies (EXPERIMENTS.md, "One study per question").
		{[]string{"-table", "relax"}, "usage", `unknown table "relax"` + "\nUsage of "},
		{[]string{"-table", "alloc"}, "usage", `unknown table "alloc"` + "\nUsage of "},
		{[]string{"-table", "order"}, "usage", `unknown table "order"` + "\nUsage of "},
		{[]string{"-table", "solve"}, "usage", `unknown table "solve"` + "\nUsage of "},
		{[]string{"-table", "messages"}, "usage", `unknown table "messages"` + "\nUsage of "},
		{[]string{"-table", "commspan"}, "usage", `unknown table "commspan"` + "\nUsage of "},
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

// TestTimedTables pins the table that runs the real engine. It is a
// registry entry like any other study, flagged so -table all leaves it
// out (TestTableAllGolden holds -table all to its pre-change bytes), and
// what it prints is deterministic where cmd/sweep's measured series is:
// the (label, P) axis with the uncalibrated predicted speedup, span and
// traffic, checked against sweep's own column golden (the table prints
// two decimals of the golden's four speedup digits), and the MAPE footer
// of the fit.
func TestTimedTables(t *testing.T) {
	var timed []string
	for _, e := range registry {
		if e.timed {
			timed = append(timed, e.name)
		}
	}
	if !slices.Equal(timed, []string{"measure"}) {
		t.Fatalf("timed tables %v, want measure", timed)
	}
	if testing.Short() {
		t.Skip("real measured runs on LAP30")
	}
	data, err := os.ReadFile(filepath.Join("..", "sweep", "testdata", "lap30_measure.cols.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")[1:]
	slices.Sort(want)
	var stdout bytes.Buffer
	if err := run([]string{"-table", "measure", "-repeats", "1"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()

	// Appl P Strategy Serial Parallel Speedup PredSpeedup PredSpan Traffic ...
	got := timedRows(out, 3, 2, 7, 8, 9)
	if len(got) != len(want) {
		t.Fatalf("-table measure has %d rows, sweep's golden %d:\n%s", len(got), len(want), out)
	}
	for i := range got {
		g, w := strings.Split(got[i], ","), strings.Split(want[i], ",")
		gp, err1 := strconv.ParseFloat(g[2], 64)
		wp, err2 := strconv.ParseFloat(w[2], 64)
		if err1 != nil || err2 != nil || !slices.Equal(append(g[:2:2], g[3:]...), append(w[:2:2], w[3:]...)) ||
			math.Abs(gp-wp) > 0.005+1e-9 {
			t.Errorf("-table measure row %q, sweep's golden %q", got[i], want[i])
		}
	}
	if !strings.Contains(out, "speedup MAPE: uncalibrated ") {
		t.Errorf("-table measure lost its MAPE footer:\n%s", out)
	}
}

// TestRegistryHasVerdicts keeps each study beyond Tables 1–5 tied to a
// finding: every such registry name has a row in EXPERIMENTS.md's
// extension-studies index, whose Verdict cell names a section heading of
// that file, and every row of the index names a registry entry.
func TestRegistryHasVerdicts(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	headings := make(map[string]bool)
	verdicts := make(map[string]string) // -table name -> Verdict cell
	var section string
	var header []string
	fenced := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		if fenced {
			continue
		}
		if h, ok := strings.CutPrefix(line, "#"); ok {
			section = strings.TrimSpace(strings.TrimLeft(h, "#"))
			headings[section] = true
			continue
		}
		if section != "Extension studies" || !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if header == nil {
			header = cells
			continue
		}
		cmd, verdict := slices.Index(header, "Command"), slices.Index(header, "Verdict")
		if cmd < 0 || verdict < 0 {
			t.Fatalf("extension-studies index has columns %q, want Command and Verdict", header)
		}
		if strings.Trim(cells[cmd], "-: ") == "" {
			continue // the separator row
		}
		name, ok := strings.CutPrefix(strings.Trim(cells[cmd], "`"), "-table ")
		if !ok {
			t.Fatalf("index row %q: command %q is not -table <name>", line, cells[cmd])
		}
		verdicts[name] = cells[verdict]
	}
	for _, e := range registry {
		if len(e.name) == 1 && e.name >= "1" && e.name <= "5" {
			continue
		}
		v, ok := verdicts[e.name]
		switch {
		case !ok:
			t.Errorf("-table %s has no row in EXPERIMENTS.md's extension-studies index", e.name)
		case !headings[v]:
			t.Errorf("-table %s: verdict %q is not a section heading of EXPERIMENTS.md", e.name, v)
		}
		delete(verdicts, e.name)
	}
	if len(verdicts) > 0 {
		t.Errorf("EXPERIMENTS.md indexes tables the registry does not have: %v", verdicts)
	}
}
