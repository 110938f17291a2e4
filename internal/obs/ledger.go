package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// LedgerSchema identifies the bench ledger format; bump it on any
// incompatible change to BenchRecord.
const LedgerSchema = "repro-bench/v2"

// ProfileSummary is the compact per-run slice of a Profile that goes into
// the bench ledger: the global time breakdown plus the critical-path
// attribution.
type ProfileSummary struct {
	Busy         int64 `json:"busy"`
	Comm         int64 `json:"comm"`
	Idle         int64 `json:"idle"`
	Stall        int64 `json:"stall"`
	CriticalLen  int   `json:"critical_len"`
	CriticalWork int64 `json:"critical_work"`
	CriticalComm int64 `json:"critical_comm"`
	// Degenerate counts zero-duration measured events (clock resolution),
	// nonzero only on real-run profiles.
	Degenerate int `json:"degenerate,omitempty"`
}

// Summary collapses a Profile into its ledger form.
func (p *Profile) Summary() ProfileSummary {
	return ProfileSummary{
		Busy:         p.Busy(),
		Comm:         p.Comm(),
		Idle:         p.Idle(),
		Stall:        p.Stall(),
		CriticalLen:  len(p.Critical),
		CriticalWork: p.CriticalWork(),
		CriticalComm: p.CriticalComm(),
		Degenerate:   p.Degenerate,
	}
}

// BenchRecord is one benchmarked run in the ledger: a (matrix, strategy,
// P, comm model) point with its simulated makespan, traffic, efficiency
// and profile summary. Kind names the mapping family ("strategy" for the
// 1D column mappers, "tile2d" for the native 2D mappers) or the sweep
// series that filed the row. Every field is a function of the code alone,
// which is what lets cmd/ledgerdiff gate every record exactly; wall clock
// is measured by ./benchmark and never enters a ledger.
type BenchRecord struct {
	Matrix     string          `json:"matrix"`
	Strategy   string          `json:"strategy"`
	Kind       string          `json:"kind"`
	P          int             `json:"p"`
	Alpha      float64         `json:"alpha"`
	Beta       float64         `json:"beta"`
	Makespan   int64           `json:"makespan"`
	Traffic    int64           `json:"traffic"`
	Efficiency float64         `json:"efficiency"`
	Profile    *ProfileSummary `json:"profile,omitempty"`
}

// Ledger is the machine-readable bench output, written as BENCH_*.json:
// a schema tag plus one BenchRecord per run.
type Ledger struct {
	Schema  string        `json:"schema"`
	Records []BenchRecord `json:"records"`
}

// NewLedger returns an empty ledger carrying the current schema tag.
func NewLedger() *Ledger { return &Ledger{Schema: LedgerSchema, Records: []BenchRecord{}} }

// Add appends one run record.
func (l *Ledger) Add(r BenchRecord) { l.Records = append(l.Records, r) }

// Write emits the ledger as indented JSON.
func (l *Ledger) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(l)
}

// ledgerRequiredKeys are the per-record keys ValidateLedger insists on;
// downstream tooling (the CI trend check) reads exactly these.
var ledgerRequiredKeys = []string{
	"matrix", "strategy", "kind", "p", "alpha", "beta",
	"makespan", "traffic", "efficiency",
}

// ValidateLedger checks that data is a parseable ledger with the current
// schema tag, at least one record, and every required key present in every
// record. It decodes into generic maps on purpose: the check guards the
// bytes on disk (what CI archives and tooling reads), not the Go structs.
func ValidateLedger(data []byte) error {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("obs: ledger is not valid JSON: %w", err)
	}
	schema, _ := doc["schema"].(string)
	if schema != LedgerSchema {
		return fmt.Errorf("obs: ledger schema %q, want %q", schema, LedgerSchema)
	}
	recs, ok := doc["records"].([]any)
	if !ok {
		return fmt.Errorf("obs: ledger has no records array")
	}
	if len(recs) == 0 {
		return fmt.Errorf("obs: ledger has zero records")
	}
	for i, r := range recs {
		rec, ok := r.(map[string]any)
		if !ok {
			return fmt.Errorf("obs: ledger record %d is not an object", i)
		}
		var missing []string
		for _, k := range ledgerRequiredKeys {
			if _, ok := rec[k]; !ok {
				missing = append(missing, k)
			}
		}
		if len(missing) > 0 {
			return fmt.Errorf("obs: ledger record %d missing keys: %s", i, strings.Join(missing, ", "))
		}
	}
	return nil
}
