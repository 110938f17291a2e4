// Package sim is a reprolint fixture for the processor-count contract:
// exported functions taking a processor count must validate it before
// first use.
package sim

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/sched"
)

// Spans sizes a per-processor slice with an unvalidated count: flagged.
func Spans(work []int64, p int) []int64 { // want "does not validate processor count"
	out := make([]int64, p)
	for i, w := range work {
		out[i%p] += w
	}
	return out
}

// SpansChecked validates through the module's one guard: clean.
func SpansChecked(work []int64, p int) []int64 {
	sched.MustProcs("sim", p)
	out := make([]int64, p)
	for i, w := range work {
		out[i%p] += w
	}
	return out
}

// SpansGuarded validates with an explicit comparison: clean.
func SpansGuarded(work []int64, p int) ([]int64, error) {
	if p < 1 {
		return nil, fmt.Errorf("sim: invalid processor count %d", p)
	}
	out := make([]int64, p)
	for i, w := range work {
		out[i%p] += w
	}
	return out, nil
}

// SpansWrapped delegates to a same-package function that validates the
// forwarded parameter: clean.
func SpansWrapped(work []int64, p int) []int64 {
	return SpansChecked(work, p)
}

// SpansForwarded hands the count to another package's exported entry
// point, which is held to this same contract: clean.
func SpansForwarded(span, total int64, p int) float64 {
	return exec.Efficiency(p, span, total)
}

// Title only prints the count: clean.
func Title(p int) string {
	return fmt.Sprintf("P=%d", p)
}
