// Command benchmark is the repository's benchmark: four workloads (cold,
// refactor, warm, study) generated from a seed, each run in a closed loop
// by one client — the system is a library, every caller waits for its
// reply — with every result checked, the end-to-end metrics of
// BENCHMARK.json measured with tracing off, and the per-layer metrics
// measured in a separate traced pass that re-enacts each request from
// outside as the sequence of layer calls pipeline makes. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// header is what makes two result files comparable.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	TimerNS    int64   `json:"timer_resolution_ns"`
	Start      string  `json:"start"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Sizes      config  `json:"sizes"`
}

// machineHeader fills the fields that do not depend on the run.
func machineHeader() header {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, TimerNS: timerResolution(), Start: time.Now().UTC().Format(time.RFC3339),
	}
}

// timerResolution is the smallest step the clock was seen to make.
func timerResolution() int64 {
	best := int64(time.Second)
	prev := time.Now()
	for i := 0; i < 10000; i++ {
		now := time.Now()
		if d := int64(now.Sub(prev)); d > 0 && d < best {
			best = d
		}
		prev = now
	}
	return best
}

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "cold, refactor, warm, study, or all (each untraced, then traced)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "how long one pass measures")
	trace := fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	rounds := fs.Int("rounds", 0, "fixed number of rounds instead of -seconds")
	outDir := fs.String("out", filepath.Join(os.TempDir(), "repro-benchmark"), "directory the span files are written to")
	jsonPath := fs.String("json", "", "append each run's full result to this file, one JSON object a line")
	compare := fs.Bool("compare", false, "apply the bounds of ./BENCHMARK.json to two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two result files, got %d", fs.NArg())
		}
		return compareFiles(out, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds <= 0 || *rounds < 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be positive, -rounds not negative, -trace 0 or 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	base := runSpec{cfg: fullConfig, seed: *seed, seconds: *seconds, rounds: *rounds, outDir: *outDir, machine: machineHeader()}
	h := base.machine
	fmt.Fprintf(out, "# commit %s, %s, nproc %d, GOMAXPROCS %d, timer %d ns, seed %d, started %s\n",
		h.Commit, h.GoVersion, h.NProc, h.GOMAXPROCS, h.TimerNS, *seed, h.Start)

	var specs []runSpec
	if *workload == "all" {
		for _, name := range workloadNames {
			untraced, traced := base, base
			untraced.workload, traced.workload = name, name
			// The traced pass is the shorter one: it is for shares and
			// ratios, not for gated medians.
			traced.trace, traced.seconds = true, 0.4**seconds
			specs = append(specs, untraced, traced)
		}
	} else {
		base.workload, base.trace = *workload, *trace == 1
		specs = []runSpec{base}
	}

	var last *runResult
	for _, s := range specs {
		res, err := run(s)
		if err != nil {
			return err
		}
		report(out, res)
		if *jsonPath != "" {
			if err := appendJSON(*jsonPath, res); err != nil {
				return err
			}
		}
		last = res
	}
	if *workload != "all" {
		// The contract's result line: the last line of standard output.
		line, err := json.Marshal(struct {
			Correct   bool                  `json:"correct"`
			Attempted int                   `json:"attempted"`
			Failed    int                   `json:"failed"`
			Metrics   map[string]contractKV `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, contractMetrics(last.Metrics)})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(line))
	}
	return nil
}

type contractKV struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractMetrics(ms map[string]metric) map[string]contractKV {
	out := make(map[string]contractKV, len(ms))
	for name, m := range ms {
		out[name] = contractKV{m.Value, m.Unit}
	}
	return out
}

func appendJSON(path string, res *runResult) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints every metric of a run by name, with its unit.
func report(out io.Writer, res *runResult) {
	pass := "untraced"
	if res.Trace == 1 {
		pass = "traced"
	}
	fmt.Fprintf(out, "\n== %s (%s, %d rounds): attempted %d, failed %d, failed_share %g\n",
		res.Workload, pass, res.Rounds, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	if res.FirstFailure != "" {
		fmt.Fprintf(out, "   first failure: %s\n", res.FirstFailure)
	}
	printMetrics(out, res.Workload, res.Metrics)
	if res.Spans != "" {
		fmt.Fprintf(out, "   spans: %s\n", res.Spans)
	}
}

func printMetrics(out io.Writer, workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		line := fmt.Sprintf("%s@%s = %.6g %s", name, workload, m.Value, m.Unit)
		if a, ok := alias[workload][name]; ok {
			line = fmt.Sprintf("%s [%s]", line, a)
		}
		if m.N > 0 {
			line += fmt.Sprintf("  (n=%d", m.N)
			if m.Median != 0 {
				line += fmt.Sprintf(" median=%.6g q1=%.6g q3=%.6g", m.Median, m.Q1, m.Q3)
			}
			if m.TailP > 0 {
				line += fmt.Sprintf(" p%g=%.6g", m.TailP, m.Tail)
			}
			line += ")"
		}
		fmt.Fprintln(out, "  ", line)
	}
}
