package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tinyConfig keeps every code path of the four workloads and shrinks every
// size, so the smoke run fits a unit-test budget.
var tinyConfig = config{
	Lap: 6, Grid: 8,
	BusN: 60, BusExtra: 15, CannN: 50, CannOff: 150,
	RefactorGrid: 10, Batch: 4,
	Procs1D: []int{2, 4}, Procs2D: []int{4}, Grain: 25,
	Setups: 1,
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4), which extrapolates on tiny samples.
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 12, 11, 15, 9}, [3]float64{9.5, 11, 13.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quartiles(c.v)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if s := spread([]float64{10, 12, 11, 15, 9}); math.Abs(s-4.0/11) > 1e-12 {
		t.Errorf("spread = %g, want 4/11", s)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it; below twenty samples there is none.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		v := make([]float64, c.n)
		for i := range v {
			v[i] = float64(c.n - i) // descending: the rule must sort
		}
		p, value, ok := tailPercentile(v)
		if ok != (c.want > 0) || p != c.want {
			t.Errorf("n=%d: percentile %g ok=%v, want %g", c.n, p, ok, c.want)
			continue
		}
		if beyond := c.n - int(value); ok && beyond < 10 {
			t.Errorf("n=%d: p%g = %g has %d samples beyond it", c.n, p, value, beyond)
		}
	}
}

func TestSelfTime(t *testing.T) {
	sp := func(id, parent int, start, end int64) span {
		return span{ID: id, Parent: parent, Start: start, End: end, GStart: start, GEnd: end}
	}
	spans := []span{
		sp(1, 0, 0, 100),   // root
		sp(2, 1, 10, 30),   // child
		sp(3, 1, 30, 50),   // adjacent child
		sp(4, 3, 35, 45),   // nested in 3: costs the root nothing more
		sp(5, 1, 60, 70),   // child after a gap
		sp(6, 0, 200, 250), // a second root, childless
	}
	// A child's bookkeeping around its call is the child's, not the parent's.
	spans[4].GStart, spans[4].GEnd = 58, 74
	want := []int64{100 - 20 - 20 - 16, 20, 20 - 10, 10, 10, 50}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", spans[i].ID, got, want[i])
		}
	}
}

func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0, 7)
	var sink []byte
	d := tr.call("child", root, 7, func() int64 { sink = make([]byte, 1<<16); return 42 })
	tr.end(root, 0)
	_ = sink
	c := tr.spans[1]
	if c.Parent != root || c.Req != 7 || c.Work != 42 || c.dur() != d || c.Mallocs < 1 || c.Bytes < 1<<16 {
		t.Errorf("child span %+v", c)
	}
	if c.GStart > c.Start || c.GEnd < c.End || tr.spans[0].Start > c.GStart || tr.spans[0].End < c.GEnd {
		t.Errorf("intervals do not nest: root %+v child %+v", tr.spans[0], c)
	}
	by := tr.bySpan()
	if got := by["root"].kids.steady(); got != float64(c.dur()) {
		t.Errorf("root's children took %g ns, want %d", got, c.dur())
	}
	if got := selfTimes(tr.spans)[0]; got != tr.spans[0].dur()-c.gross() {
		t.Errorf("root's self time %d, want %d", got, tr.spans[0].dur()-c.gross())
	}
}

// A metric is the sum of its calls' floors, each taken over the rounds:
// interference that hits a different call every round leaves it alone.
func TestSeriesSteady(t *testing.T) {
	var s series
	for _, round := range [][]float64{{10, 200, 30}, {100, 20, 30}, {10, 20, 300}} {
		for _, ns := range round {
			s.add(ns)
		}
		s.endRound()
	}
	if got := s.steady(); got != 10+20+30 {
		t.Errorf("steady = %g, want 60", got)
	}
	if got, want := s.rounds(), []float64{240, 150, 330}; !sameBits(got, want) {
		t.Errorf("rounds = %v, want %v", got, want)
	}
	o := &opSeries{series: s, reqs: 3}
	if steady, rounds := o.perRequest(); steady != 20 || rounds[1] != 50 {
		t.Errorf("per request: steady %g, rounds %v", steady, rounds)
	}
	// Spans group the same way: by name, round, and order within the round.
	tr := newTracer()
	for round := 0; round < 2; round++ {
		tr.call("a", 0, 0, func() int64 { return 5 })
		tr.call("a", 0, 0, func() int64 { return 7 })
		tr.round++
	}
	a := tr.bySpan()["a"]
	if a.callsPerRound() != 2 || len(a.dur.calls[1]) != 2 || a.totalWork() != 12 || len(a.mallocs) != 2 {
		t.Errorf("span series %+v", a)
	}
}

// The same seed gives the same inputs; another seed changes the two seeded
// patterns, every right-hand side and the value scaling, and nothing else.
func TestSeedDeterminism(t *testing.T) {
	a, b, c := buildPool(tinyConfig, 1), buildPool(tinyConfig, 1), buildPool(tinyConfig, 2)
	for i := range a {
		if !patternEqual(a[i].a, b[i].a) {
			t.Errorf("%s: same seed, different pattern", a[i].name)
		}
		if changed := !patternEqual(a[i].a, c[i].a); changed != a[i].seeded {
			t.Errorf("%s: seeded=%v but pattern changed=%v under another seed", a[i].name, a[i].seeded, changed)
		}
	}
	draw := func(seed int64) ([]float64, []float64) {
		w := &refactorWL{cfg: tinyConfig}
		if err := w.setup(seed); err != nil {
			t.Fatal(err)
		}
		b := w.churn()
		return b, append([]float64(nil), values(w.a)...)
	}
	b1, v1 := draw(1)
	b1again, v1again := draw(1)
	b2, v2 := draw(2)
	if !sameBits(b1, b1again) || !sameBits(v1, v1again) {
		t.Error("same seed: rhs or values differ")
	}
	for i := range b1 {
		if b1[i] == b2[i] {
			t.Fatalf("rhs entry %d unchanged under another seed", i)
		}
	}
	if v1[0] == v2[0] {
		t.Error("value scaling unchanged under another seed")
	}
}

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs all four workloads, untraced and traced, at tiny sizes:
// no check may fail, every metric BENCHMARK.json declares must be emitted
// once with its unit and nothing else may be, every end-to-end value must
// be positive, and the counts must repeat under the same seed and — being
// taken on seed-independent patterns — under another.
func TestSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadNames[i])
		}
		s := runSpec{workload: w.Name, cfg: tinyConfig, seed: 1, rounds: 2, outDir: t.TempDir()}
		res, err := run(s)
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, res, spec.EndToEnd)
		for _, m := range spec.EndToEnd {
			if v := res.Metrics[m.Name].Value; !(v > 0) {
				t.Errorf("%s@%s = %g, want > 0", m.Name, w.Name, v)
			}
		}

		for _, seed := range []int64{1, 2} {
			s.seed = seed
			again, err := run(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"traffic_words", "span_work"} {
				if again.Metrics[name].Value != res.Metrics[name].Value {
					t.Errorf("%s@%s: %g under seed %d, %g under seed 1", name, w.Name, again.Metrics[name].Value, seed, res.Metrics[name].Value)
				}
			}
		}

		s.seed, s.trace = 1, true
		res, err = run(s)
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, res, spec.PerLayer)
		if res.Rounds != 2 {
			t.Errorf("%s: %d traced rounds, want 2", w.Name, res.Rounds)
		}
		if cov := res.Metrics["trace.coverage"].Value; cov <= 0 {
			t.Errorf("trace.coverage@%s = %g", w.Name, cov)
		}
		data, err := os.ReadFile(res.Spans)
		var spans []span
		if err != nil || json.Unmarshal(data, &spans) != nil || len(spans) == 0 {
			t.Errorf("%s: span file %s unreadable or empty (%v)", w.Name, res.Spans, err)
		}
	}
}

func checkRun(t *testing.T, res *runResult, declared []metricSpec) {
	t.Helper()
	if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
		t.Errorf("%s trace=%d: %d of %d operations failed: %s", res.Workload, res.Trace, res.Failed, res.Attempted, res.FirstFailure)
	}
	if len(res.Metrics) != len(declared) {
		t.Errorf("%s trace=%d: %d metrics emitted, %d declared", res.Workload, res.Trace, len(res.Metrics), len(declared))
	}
	for _, m := range declared {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s trace=%d: %s emitted=%v with unit %q, declared unit %q", res.Workload, res.Trace, m.Name, ok, got.Unit, m.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s trace=%d: %s = %g", res.Workload, res.Trace, m.Name, got.Value)
		}
	}
}

// TestSpecContract holds BENCHMARK.json to the limits the driver refuses a
// file outside of.
func TestSpecContract(t *testing.T) {
	spec := loadTestSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if len([]rune(w.Why)) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("why of %s: %d characters", w.Name, len([]rune(w.Why)))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in s, lower is better")
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
	// The command may name no file of the repo outside paths.
	if len(spec.Command) != 2 || spec.Command[0] != "bash" || spec.Command[1] != "benchmark/run.sh" {
		t.Errorf("command %q", spec.Command)
	}
	// All runs together, with their set-up, must end within the cap.
	if runs := 4 + 22*len(spec.Workloads); runs*spec.RunSeconds > 3420*2/3 {
		t.Errorf("%d runs of %d s leave less than a third of the cap for set-up and builds", runs, spec.RunSeconds)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{80, 100, 125, 90, 118}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"within the bound", steady, []float64{105, 106, 104, 105, 107}, "lower", "same"},
		{"beyond it, both steady", steady, []float64{120, 121, 119, 120, 122}, "lower", "worse"},
		{"beyond it the good way", steady, []float64{80, 81, 79, 80, 82}, "lower", "better"},
		{"higher is better", steady, []float64{80, 81, 79, 80, 82}, "higher", "worse"},
		{"a side noisier than the bound", noisy, []float64{120, 121, 119, 120, 122}, "lower", "unresolved"},
		{"noisy, but every run better", noisy, []float64{60, 61, 59, 60, 62}, "lower", "better"},
		{"noisy, median better, runs overlap", noisy, []float64{85, 86, 84, 85, 87}, "lower", "unresolved"},
		{"a count that moved at all", []float64{152877, 152877}, []float64{152878, 152878}, "lower", "worse"},
	} {
		bound := 0.1
		if strings.Contains(c.name, "count") {
			bound = 1e-6
		}
		if got, _ := verdict(c.a, c.b, c.better, bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, request float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			res := &runResult{Workload: "cold", Metrics: map[string]metric{
				"request_ms": {Value: request + float64(i)*0.01, Unit: "ms"},
				// A traced run must not be mistaken for an untraced one.
			}}
			if err := appendJSON(path, res); err != nil {
				t.Fatal(err)
			}
		}
		traced := &runResult{Workload: "cold", Trace: 1, Metrics: map[string]metric{"request_ms": {Value: 1e9}}}
		if err := appendJSON(path, traced); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 10), write("b.json", 10.5), write("c.json", 14)
	spec := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if err := compareFiles(&out, spec, base, same); err != nil {
		t.Errorf("equal runs: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "same") || strings.Contains(out.String(), "worse\n") {
		t.Errorf("equal runs reported as:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, base, slow); err != errWorse {
		t.Errorf("a 40 %% slower request: err = %v\n%s", err, out.String())
	}
	if err := realMain([]string{"-compare", base}, &out); err == nil {
		t.Error("-compare with one file succeeded")
	}
}
