package artifact_test

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/sparse"
)

var update = flag.Bool("update", false, "rewrite testdata/pattern_sums.golden")

type namedPattern struct {
	name string
	m    *sparse.Matrix
}

// goldenPatterns are the paper's suite and the benchmark's cold patterns:
// a 60 × 60 grid and the two seeded generators at seeds 1–3, at the sizes
// benchmark/run.go gives them.
func goldenPatterns() []namedPattern {
	var out []namedPattern
	for _, tm := range gen.Suite() {
		out = append(out, namedPattern{tm.Name, tm.Build()})
	}
	out = append(out, namedPattern{"GRID9-60", gen.Grid9(60, 60)})
	for seed := int64(1); seed <= 3; seed++ {
		out = append(out,
			namedPattern{fmt.Sprintf("PBUS-3000-900-s%d", seed), gen.PowerBus(3000, 900, seed)},
			namedPattern{fmt.Sprintf("CANN-1500-8000-s%d", seed), gen.Cannes(1500, 8000, seed)})
	}
	return out
}

// TestPatternSumsGolden holds PatternSum and pipeline.AnalysisKey of every
// golden pattern to the digests in testdata/pattern_sums.golden, which
// were written when sparse.Matrix held its row indices as []int: a change
// of index type must not move a digest, or every cached artifact keyed by
// one would miss.
func TestPatternSumsGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range goldenPatterns() {
		ps := artifact.PatternSum(p.m)
		ak := pipeline.AnalysisKey(p.m)
		fmt.Fprintf(&b, "%s %s %s\n", p.name, hex.EncodeToString(ps[:]), hex.EncodeToString(ak.Sum[:]))
	}
	const path = "testdata/pattern_sums.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("digests drifted from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
