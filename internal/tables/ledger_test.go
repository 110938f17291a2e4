package tables

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
)

// TestBaselineLedgerReproduces is the constant-ledger gate: the committed
// BENCH_baseline.json is exactly what BenchLedger computes for LAP30 at
// the default processor counts under alpha = 2, beta = 10, record for
// record and field for field. A change that moves a simulated number on
// purpose regenerates the file (`go run ./cmd/paperbench -table none
// -matrix LAP30 -ledger BENCH_baseline.json`) and says so. The strict
// decode keeps the file to BenchRecord's fields: a wall-clock key cannot
// come back without failing here.
func TestBaselineLedgerReproduces(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateLedger(data); err != nil {
		t.Fatal(err)
	}
	var want obs.Ledger
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("BENCH_baseline.json carries a field BenchRecord does not: %v", err)
	}
	got := must(BenchLedger([]*Problem{loadLap(t)}, DefaultProcs, exec.CommModel{Alpha: 2, Beta: 10}))(t)
	if len(got.Records) != len(want.Records) {
		t.Fatalf("BenchLedger emits %d records, BENCH_baseline.json holds %d", len(got.Records), len(want.Records))
	}
	for i, g := range got.Records {
		if w := want.Records[i]; !reflect.DeepEqual(g, w) {
			t.Errorf("record %d (%s %s P=%d) drifted from BENCH_baseline.json:\n got %+v %+v\nwant %+v %+v",
				i, g.Kind, g.Strategy, g.P, g, g.Profile, w, w.Profile)
		}
	}
}
