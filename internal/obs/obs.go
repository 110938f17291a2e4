// Package obs is the observability layer of the simulation stack: tracing,
// profiling and telemetry for the makespan simulators and the mapper
// searches, plus the machine-readable bench ledger the per-PR performance
// trajectory is recorded in.
//
// The paper's core claims are about where time goes — load imbalance
// versus communication versus dependency stalls (Section 4's idle-time
// argument) — yet a SimResult collapses a full execution into five
// numbers. This package keeps the execution: a Tracer attached to any
// variant of exec.Simulate (exec.SimOptions.Probe — static or dynamic,
// with or without a CommModel, over 1D or 2D task graphs alike) collects
// one exec.TaskEvent per task, and from those events
//
//   - BuildProfile aggregates the per-processor busy/comm/stall/idle
//     breakdown (conserving busy+comm+idle = P x Makespan exactly), an
//     idle-gap histogram, and the critical path: the time-contiguous chain
//     of tasks realizing the makespan, each link attributed to compute,
//     communication, or the dependency/processor constraint that bound its
//     start;
//   - WriteChromeTrace exports a Chrome trace-event JSON file loadable in
//     Perfetto (https://ui.perfetto.dev) or chrome://tracing, one lane per
//     processor with compute/comm/stall slices;
//   - Gantt renders the same timeline as an ASCII per-processor chart for
//     terminal use.
//
// Tracing is strictly opt-in: with a nil probe the simulators build no
// events and return bit-identical results (regression-tested), so the
// layer costs nothing when disabled.
//
// SearchTelemetry instruments the other half of the system, the mapper
// searches: the refine hill-climbs, the rect2d ownership descent and the
// contigtotal DP count their trial moves and record the objective
// trajectory when a collector is attached via strategy.Options.Search.
//
// Ledger is the bench output format: one BenchRecord per (matrix,
// strategy, P, comm model) run with makespan, traffic, efficiency and a
// profile summary, written as BENCH_*.json and validated by
// ValidateLedger (the check CI runs before archiving).
package obs

import "repro/internal/exec"

// Tracer collects the TaskEvents of one simulation run; it implements
// exec.Probe. The zero value is ready to use. A Tracer is not safe for
// concurrent use; attach a fresh one per simulation (or Reset between
// runs).
type Tracer struct {
	Events []exec.TaskEvent
}

// NewTracer returns an empty Tracer.
func NewTracer() *Tracer { return &Tracer{} }

// OnTask implements exec.Probe by recording the event.
func (t *Tracer) OnTask(ev exec.TaskEvent) { t.Events = append(t.Events, ev) }

// Reset discards the collected events, keeping the backing storage.
func (t *Tracer) Reset() { t.Events = t.Events[:0] }

// SearchTelemetry counts the trial moves of a mapper search (a refine
// hill-climb, the rect2d ownership descent, or the contigtotal DP's
// transition relaxations) and records the objective trajectory. All
// methods are nil-receiver safe, so instrumented searches call them
// unconditionally and a nil collector — the default — costs one pointer
// test per trial.
type SearchTelemetry struct {
	// Trials counts objective evaluations: candidate moves tried by a
	// hill-climb, or transitions relaxed by the DP. Accepted counts the
	// ones that improved (were kept), Rejected the reverted/discarded
	// ones; Trials == Accepted + Rejected.
	Trials   int64
	Accepted int64
	Rejected int64
	// Trajectory records the objective value over the search: the starting
	// value first (recorded by Objective before any trial), then one entry
	// per accepted improvement. A strictly-improving search therefore
	// yields a strictly monotone trajectory — the convergence curve.
	Trajectory []int64
}

// Trial records one objective evaluation and whether the move was kept.
func (t *SearchTelemetry) Trial(accepted bool) {
	if t == nil {
		return
	}
	t.Trials++
	if accepted {
		t.Accepted++
	} else {
		t.Rejected++
	}
}

// Objective appends a point to the objective trajectory.
func (t *SearchTelemetry) Objective(v int64) {
	if t == nil {
		return
	}
	t.Trajectory = append(t.Trajectory, v)
}

// Best returns the last trajectory point (the final objective), or 0 when
// nothing was recorded.
func (t *SearchTelemetry) Best() int64 {
	if t == nil || len(t.Trajectory) == 0 {
		return 0
	}
	return t.Trajectory[len(t.Trajectory)-1]
}
