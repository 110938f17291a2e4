// Command ledgerdiff compares two bench ledgers (BENCH_*.json) and is
// the constant-ledger gate: every (matrix, kind, strategy, p) key present
// in both files is diffed on makespan and traffic, keys present in only
// one file are flagged, and the exit status is nonzero when any record
// drifted or a baseline key is missing from the current ledger. A ledger
// holds simulated counts only — functions of the code alone — so nothing
// is tolerated and no kind is exempt. Both files must pass
// obs.ValidateLedger (schema tag, at least one record, required keys) and
// carry each key once; anything else is an error, never an empty diff.
//
// Usage:
//
//	ledgerdiff BENCH_baseline.json BENCH_current.json
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"

	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ledgerdiff: ")
	if len(os.Args) != 3 {
		log.Fatal("usage: ledgerdiff BASELINE.json CURRENT.json")
	}
	baseline, err := os.ReadFile(os.Args[1])
	if err != nil {
		log.Fatal(err)
	}
	current, err := os.ReadFile(os.Args[2])
	if err != nil {
		log.Fatal(err)
	}
	failed, err := run(baseline, current, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// key identifies one benchmarked configuration across ledgers.
func key(r obs.BenchRecord) string {
	return fmt.Sprintf("%s/%s/%s/P=%d", r.Matrix, r.Kind, r.Strategy, r.P)
}

// index validates one serialized ledger and returns its records by key.
// A key carried twice is an error: a map would silently keep the last
// copy and compare only that one.
func index(data []byte) (map[string]obs.BenchRecord, error) {
	if err := obs.ValidateLedger(data); err != nil {
		return nil, err
	}
	var l obs.Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, err
	}
	recs := make(map[string]obs.BenchRecord, len(l.Records))
	for _, r := range l.Records {
		k := key(r)
		if _, dup := recs[k]; dup {
			return nil, fmt.Errorf("duplicate key %s", k)
		}
		recs[k] = r
	}
	return recs, nil
}

// relDrift is the relative change from old to new, guarded for zero
// baselines.
func relDrift(old, new int64) float64 {
	if old == new {
		return 0
	}
	return math.Abs(float64(new-old)) / math.Max(math.Abs(float64(old)), 1)
}

// run diffs two serialized ledgers and writes the report: one line per
// drifted or missing key (sorted), then a summary. It returns how many
// keys fail the gate — drifted ones and ones missing from the current
// ledger; keys new in the current ledger are informational only.
func run(baseline, current []byte, w io.Writer) (int, error) {
	baseRecs, err := index(baseline)
	if err != nil {
		return 0, fmt.Errorf("baseline ledger: %w", err)
	}
	curRecs, err := index(current)
	if err != nil {
		return 0, fmt.Errorf("current ledger: %w", err)
	}
	keys := make([]string, 0, len(baseRecs))
	for k := range baseRecs {
		keys = append(keys, k)
	}
	for k := range curRecs {
		if _, ok := baseRecs[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	compared, drifted, missing := 0, 0, 0
	for _, k := range keys {
		b, inBase := baseRecs[k]
		c, inCur := curRecs[k]
		switch {
		case !inCur:
			missing++
			fmt.Fprintf(w, "%s: missing from current ledger\n", k)
		case !inBase:
			fmt.Fprintf(w, "%s: new in current ledger\n", k)
		default:
			compared++
			if b.Makespan == c.Makespan && b.Traffic == c.Traffic {
				continue
			}
			drifted++
			fmt.Fprintf(w, "%s: makespan %d -> %d (%.2f%%), traffic %d -> %d (%.2f%%)\n",
				k, b.Makespan, c.Makespan, 100*relDrift(b.Makespan, c.Makespan),
				b.Traffic, c.Traffic, 100*relDrift(b.Traffic, c.Traffic))
		}
	}
	fmt.Fprintf(w, "ledgerdiff: %d keys compared, %d drifted, %d missing\n", compared, drifted, missing)
	return drifted + missing, nil
}
