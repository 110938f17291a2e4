package main

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// ledgerBytes serializes records into a ledger file image.
func ledgerBytes(t *testing.T, recs ...obs.BenchRecord) []byte {
	t.Helper()
	l := obs.NewLedger()
	for _, r := range recs {
		l.Add(r)
	}
	var sb strings.Builder
	if err := l.Write(&sb); err != nil {
		t.Fatal(err)
	}
	return []byte(sb.String())
}

func rec(kind string, p int, makespan, traffic int64) obs.BenchRecord {
	return obs.BenchRecord{
		Matrix: "LAP30", Strategy: "rect2dcyclic", Kind: kind, P: p,
		Alpha: 2, Beta: 10, Makespan: makespan, Traffic: traffic,
		Efficiency: 0.5,
	}
}

// TestDiffGolden pins the report: identical ledgers are silent apart
// from the summary, and any drifted metric prints the full delta line
// and fails the gate, whatever the record's kind.
func TestDiffGolden(t *testing.T) {
	base := ledgerBytes(t, rec("tile2d", 4, 1000, 50), rec("comm", 4, 1000, 50))

	var sb strings.Builder
	failed, err := run(base, base, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Errorf("identical ledgers: failed = %d", failed)
	}
	if got, want := sb.String(), "ledgerdiff: 2 keys compared, 0 drifted, 0 missing\n"; got != want {
		t.Errorf("identical ledgers report:\n got %q\nwant %q", got, want)
	}

	sb.Reset()
	cur := ledgerBytes(t, rec("tile2d", 4, 1100, 50), rec("comm", 4, 1000, 51))
	failed, err = run(base, cur, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 2 {
		t.Errorf("two drifted records: failed = %d, want 2", failed)
	}
	want := "LAP30/comm/rect2dcyclic/P=4: makespan 1000 -> 1000 (0.00%), traffic 50 -> 51 (2.00%)\n" +
		"LAP30/tile2d/rect2dcyclic/P=4: makespan 1000 -> 1100 (10.00%), traffic 50 -> 50 (0.00%)\n" +
		"ledgerdiff: 2 keys compared, 2 drifted, 0 missing\n"
	if sb.String() != want {
		t.Errorf("drift report:\n got %q\nwant %q", sb.String(), want)
	}
}

// TestDiffMissingKey pins the two one-sided cases: a baseline key
// vanishing from the current ledger is a regression, a key only the
// current ledger has is reported and passes.
func TestDiffMissingKey(t *testing.T) {
	both := rec("tile2d", 4, 1000, 50)
	var sb strings.Builder
	failed, err := run(ledgerBytes(t, both, rec("tile2d", 16, 700, 90)), ledgerBytes(t, both), &sb)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 || !strings.Contains(sb.String(), "P=16: missing from current ledger") {
		t.Errorf("missing key: failed = %d\n%s", failed, sb.String())
	}

	sb.Reset()
	failed, err = run(ledgerBytes(t, both), ledgerBytes(t, both, rec("tile2d", 16, 700, 90)), &sb)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 || !strings.Contains(sb.String(), "P=16: new in current ledger") {
		t.Errorf("new key: failed = %d\n%s", failed, sb.String())
	}
}

// TestRejectsInvalidLedger closes the first vacuous pass: a truncated or
// foreign file on either side used to decode to zero records, compare
// "0 keys" and exit 0 against anything. Both inputs go through
// obs.ValidateLedger, and the error says which side failed.
func TestRejectsInvalidLedger(t *testing.T) {
	good := ledgerBytes(t, rec("tile2d", 4, 1000, 50))
	for _, tc := range []struct{ name, data, want string }{
		{"empty object", `{}`, "schema"},
		{"wrong schema tag", strings.Replace(string(good), obs.LedgerSchema, "repro-bench/v1", 1), `schema "repro-bench/v1"`},
		{"zero records", string(ledgerBytes(t)), "zero records"},
		{"record without its metrics", `{"schema":"` + obs.LedgerSchema + `","records":[{"matrix":"LAP30"}]}`, "missing keys"},
	} {
		if _, err := run([]byte(tc.data), good, new(strings.Builder)); err == nil ||
			!strings.Contains(err.Error(), "baseline ledger") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s as baseline: error %v, want baseline ledger ... %s", tc.name, err, tc.want)
		}
		if _, err := run(good, []byte(tc.data), new(strings.Builder)); err == nil ||
			!strings.Contains(err.Error(), "current ledger") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s as current: error %v, want current ledger ... %s", tc.name, err, tc.want)
		}
	}
}

// TestRejectsDuplicateKey closes the second: records are indexed by key,
// and a ledger carrying one key twice — a drifted and an undrifted copy,
// or the same cell under two comm models — used to compare only the last
// copy. A duplicate in either file is an error naming the key.
func TestRejectsDuplicateKey(t *testing.T) {
	base := ledgerBytes(t, rec("tile2d", 4, 1000, 50))
	twice := ledgerBytes(t, rec("tile2d", 4, 2000, 50), rec("tile2d", 4, 1000, 50))
	const want = "duplicate key LAP30/tile2d/rect2dcyclic/P=4"
	if _, err := run(base, twice, new(strings.Builder)); err == nil || !strings.Contains(err.Error(), "current ledger: "+want) {
		t.Errorf("duplicate in current: error %v, want %q", err, want)
	}
	if _, err := run(twice, base, new(strings.Builder)); err == nil || !strings.Contains(err.Error(), "baseline ledger: "+want) {
		t.Errorf("duplicate in baseline: error %v, want %q", err, want)
	}
}
