package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// loadRuns reads a result file: one run a line, as -json appends them.
func loadRuns(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// metricValues collects one end-to-end metric of one workload over the untraced
// runs of a result file.
func metricValues(runs []runResult, workload, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == 0 {
			v = append(v, m.Value)
		}
	}
	return v
}

// verdict applies a bound to two sets of runs of one metric on one
// workload. worse is how much worse b's median is than a's, as a share of
// a's. Medians within the bound are the same. Beyond it, the difference
// counts only if neither side's own run-to-run spread is wider than the
// bound — or if every run of b is better than every run of a; otherwise
// the pair is unresolved, not unchanged.
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	worse := sign * (mb - ma) / ma
	switch {
	case worse <= bound && worse >= -bound:
		return "same", worse
	case spread(a) <= bound && spread(b) <= bound:
		if worse > 0 {
			return "worse", worse
		}
		return "better", worse
	}
	if worse < 0 {
		all := true
		for _, x := range a {
			for _, y := range b {
				all = all && sign*(y-x) < 0
			}
		}
		if all {
			return "better", worse
		}
	}
	return "unresolved", worse
}

var errWorse = errors.New("at least one end-to-end metric is worse by more than its bound")

func compareFiles(out io.Writer, specPath, aPath, bPath string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadRuns(aPath)
	if err != nil {
		return err
	}
	b, err := loadRuns(bPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-9s %-14s %14s %8s %14s %8s %8s %8s  %s\n",
		"workload", "metric", "A median", "spread", "B median", "spread", "B worse", "bound", "verdict")
	anyWorse := false
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := metricValues(a, w.Name, m.Name), metricValues(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-9s %-14s no runs in %s\n", w.Name, m.Name, map[bool]string{true: aPath, false: bPath}[len(va) == 0])
				continue
			}
			v, worse := verdict(va, vb, m.Better, m.Bound)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(out, "%-9s %-14s %14.6g %7.2f%% %14.6g %7.2f%% %+7.2f%% %7.4g%%  %s\n",
				w.Name, m.Name, median(va), 100*spread(va), median(vb), 100*spread(vb), 100*worse, 100*m.Bound, v)
		}
	}
	if anyWorse {
		return errWorse
	}
	return nil
}
