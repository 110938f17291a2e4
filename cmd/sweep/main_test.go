package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/tables"
)

// TestValidateRepeats pins the fail-fast -repeats gate: the measurement
// kind rejects zero and negative counts with the kind and value in the
// message, while purely simulated kinds ignore the flag entirely.
func TestValidateRepeats(t *testing.T) {
	for _, reps := range []int{0, -1, -7} {
		err := validateRepeats("measure", reps)
		if err == nil {
			t.Errorf("validateRepeats(measure, %d) accepted", reps)
			continue
		}
		if !strings.Contains(err.Error(), "measure") || !strings.Contains(err.Error(), "-repeats") {
			t.Errorf("validateRepeats(measure, %d) error %q does not name the kind and flag", reps, err)
		}
	}
	if err := validateRepeats("measure", 1); err != nil {
		t.Errorf("validateRepeats(measure, 1) = %v, want nil", err)
	}
	for _, kind := range []string{"procs", "grain", "strategy", "tile2d"} {
		if err := validateRepeats(kind, 0); err != nil {
			t.Errorf("validateRepeats(%q, 0) = %v, want nil (kind never times a run)", kind, err)
		}
	}
}

// sweepOut runs the command the way main does and returns its stdout.
func sweepOut(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("sweep %v: %v", args, err)
	}
	return stdout.String()
}

// columns keeps the 1-based comma-separated fields of every line.
func columns(text string, keep ...int) string {
	var sb strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fields := strings.Split(line, ",")
		var kept []string
		for _, k := range keep {
			kept = append(kept, fields[k-1])
		}
		sb.WriteString(strings.Join(kept, ",") + "\n")
	}
	return sb.String()
}

// TestSeriesGolden pins every deterministic LAP30 series byte for byte
// against the output of the commit before the studies moved into
// internal/tables.
func TestSeriesGolden(t *testing.T) {
	for _, kind := range []string{"procs", "grain", "width", "strategy", "comm", "tile2d"} {
		want, err := os.ReadFile(filepath.Join("testdata", "lap30_"+kind+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if got := sweepOut(t, "-kind", kind, "-matrix", "LAP30"); got != string(want) {
			t.Errorf("-kind %s drifted from testdata/lap30_%s.csv:\n%s", kind, kind, got)
		}
	}
}

// TestMeasuredSeriesDeterministicColumns pins what the wall-clock series
// fixes run to run: the row axis (label, P) with the uncalibrated
// predicted speedup, span and traffic.
func TestMeasuredSeriesDeterministicColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("real measured runs on LAP30")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "lap30_measure.cols.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got := columns(sweepOut(t, "-kind", "measure", "-matrix", "LAP30", "-repeats", "1"), 1, 2, 6, 7, 8)
	if got != string(want) {
		t.Errorf("-kind measure deterministic columns drifted:\n%s", got)
	}
}

// TestLedgerMatchesBenchLedger holds -ledger to tables.BenchLedger on the
// (matrix, label, P) cells the two share: one traced-run record helper
// serves both, so the records differ at most in Kind (the comm series
// files its rows under "comm").
func TestLedgerMatchesBenchLedger(t *testing.T) {
	lap, err := tables.LoadNamed("LAP30")
	if err != nil {
		t.Fatal(err)
	}
	cm := repro.CommModel{Alpha: 2, Beta: 10}
	bench, err := tables.BenchLedger([]*tables.Problem{lap}, []int{4, 16}, cm)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		strategy string
		p        int
	}
	want := make(map[key]repro.BenchRecord)
	for _, r := range bench.Records {
		want[key{r.Strategy, r.P}] = r
	}
	for kind, args := range map[string][]string{
		"strategy": {"-procs", "16"},
		"comm":     {"-strategy", "wrap"},
		"tile2d":   {"-strategy", "rect2dcyclic"},
	} {
		path := filepath.Join(t.TempDir(), "ledger.json")
		sweepOut(t, append([]string{"-kind", kind, "-ledger", path}, args...)...)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var got repro.Ledger
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		shared := 0
		for _, r := range got.Records {
			w, ok := want[key{r.Strategy, r.P}]
			if !ok {
				continue
			}
			shared++
			if r.Kind != kind {
				t.Errorf("-kind %s filed %s P=%d under kind %q", kind, r.Strategy, r.P, r.Kind)
			}
			r.Kind = w.Kind
			if !reflect.DeepEqual(r, w) {
				t.Errorf("-kind %s %s P=%d: sweep record %+v != BenchLedger record %+v", kind, r.Strategy, r.P, r, w)
			}
		}
		if shared == 0 {
			t.Errorf("-kind %s shares no cell with BenchLedger", kind)
		}
	}
}

// countingLoader swaps the matrix loader for one that counts its calls
// and serves a problem small enough to sweep in milliseconds.
func countingLoader(t *testing.T) *int {
	t.Helper()
	calls := new(int)
	real := loadProblem
	loadProblem = func(name string) (*tables.Problem, error) {
		*calls++
		return tables.LoadProblem(repro.TestMatrix{Name: name, Build: func() *repro.Matrix { return repro.Grid9(6, 6) }})
	}
	t.Cleanup(func() { loadProblem = real })
	return calls
}

// TestRejectsBeforeLoading pins the fail-fast contract: a flag value no
// registry knows is refused before any matrix is built.
func TestRejectsBeforeLoading(t *testing.T) {
	calls := countingLoader(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "bogus"}, `unknown series kind "bogus"`},
		{[]string{"-kind", "strategy", "-strategy", "zzz"}, `unknown strategy "zzz"`},
		{[]string{"-kind", "tile2d", "-strategy", "wrap"}, `unknown 2D strategy "wrap"`},
		{[]string{"-kind", "grain", "-ledger", filepath.Join(t.TempDir(), "l.json")}, "-ledger requires -kind strategy, comm, tile2d"},
		{[]string{"-kind", "measure", "-repeats", "0"}, "invalid -repeats 0 for -kind measure"},
		{[]string{"-kind", "all"}, "-kind all requires -out"},
		{[]string{"-kind", "comm", "-alpha", "NaN"}, "-alpha/-beta: invalid CommModel: Alpha = NaN"},
		{[]string{"-kind", "comm", "-alpha", "-5"}, "-alpha/-beta: invalid CommModel: Alpha = -5"},
		{[]string{"-kind", "tile2d", "-beta", "+Inf"}, "-alpha/-beta: invalid CommModel: Beta = +Inf"},
	} {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("sweep %v: error %v, want %q", tc.args, err, tc.want)
		}
	}
	if *calls != 0 {
		t.Errorf("rejected flags reached the matrix loader %d times", *calls)
	}
}

// TestAllLoadsEachMatrixOnce pins -kind all to one analysis per matrix:
// the six series of a matrix render from the same loaded problem.
func TestAllLoadsEachMatrixOnce(t *testing.T) {
	calls := countingLoader(t)
	dir := t.TempDir()
	var stderr bytes.Buffer
	if err := run([]string{"-kind", "all", "-out", dir}, io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	if want := len(repro.TestMatrices()); *calls != want {
		t.Errorf("-kind all loaded %d problems for %d matrices", *calls, want)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 * len(repro.TestMatrices()); len(files) != want || strings.Count(stderr.String(), "wrote ") != want {
		t.Errorf("-kind all wrote %d files (want %d):\n%s", len(files), want, stderr.String())
	}
}
