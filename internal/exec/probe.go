package exec

import "repro/internal/sched"

// TaskEvent describes one task execution inside a makespan simulation:
// where it ran, when, how its duration splits into compute and
// communication, and what bound its start time. The makespan simulators
// emit one event per task to an attached Probe; with a nil probe no event
// is built and the simulation is bit-identical to the un-instrumented
// path (regression-tested), so tracing is strictly opt-in.
type TaskEvent struct {
	Task int32 // task ID
	Proc int32 // executing processor
	// Start and Finish delimit the task's execution interval;
	// Finish-Start == Work+Comm always.
	Start  int64
	Finish int64
	// Work is the compute portion of the duration and Comm the
	// communication portion (nonzero only under a comm-aware simulator,
	// which charges each task its fetch volume and message cost up front).
	Work int64
	Comm int64
	// Stall is the idle gap on Proc immediately before Start: the time the
	// processor spent waiting between finishing its previous task and
	// starting this one. Zero when the task started the moment the
	// processor freed up.
	Stall int64
	// Cause is the predecessor task whose completion bound Start, i.e. the
	// dependency this task (and its processor) stalled on; -1 when the
	// start was bound by the processor itself (Stall == 0). Stall > 0
	// implies Cause >= 0 in both the static and the dynamic simulator,
	// which is what lets the critical-path extraction walk a
	// time-contiguous chain back to t = 0.
	Cause int32
}

// Probe receives per-task events from a makespan simulation. Implementors
// must not retain the event past the call (it may be a reused value) —
// copy it, as the obs.Tracer does. Probes observe; they cannot change the
// simulation, whose results are identical with and without one attached.
type Probe interface {
	OnTask(ev TaskEvent)
}

// finalize derives the summary fields of a SimResult from the simulated
// span and the summed task work, pinning the degenerate edge cases in one
// place: a zero-span simulation (empty task list, or every task carrying
// zero work) reports Idle = 0 and Efficiency = 1, so Idle can never go
// negative and the two fields can never disagree about whether the run
// was degenerate. For span > 0 the fields are exactly the documented
// formulas (Idle = P*Makespan - TotalWork, Efficiency = TotalWork /
// (P*Makespan)); work conservation guarantees TotalWork <= P*Makespan, so
// Idle is non-negative there too.
func finalize(p int, span, total int64) SimResult {
	sched.MustProcs("exec", p)
	res := SimResult{P: p, Makespan: span, TotalWork: total}
	if span > 0 {
		res.Idle = int64(p)*span - total
		res.Efficiency = float64(total) / (float64(p) * float64(span))
	} else {
		res.Efficiency = 1
	}
	return res
}

// Efficiency is the exported form of finalize's efficiency rule: TotalWork
// / (P * span) with the zero-span case pinned to 1, never NaN. Derived
// tables (critical-path efficiency bounds in particular) must route
// through this instead of dividing directly, or a degenerate zero-work run
// poisons rendered tables and the JSON ledger (encoding/json rejects NaN).
func Efficiency(p int, span, total int64) float64 {
	return finalize(p, span, total).Efficiency
}

// IdlePct is the idle percentage of the run, 100 * Idle / (P * Makespan),
// with the zero-span case pinned to 0 by the same rule finalize applies
// (a degenerate run has no idle time, not an undefined one).
func (r SimResult) IdlePct() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return 100 * float64(r.Idle) / (float64(r.P) * float64(r.Makespan))
}
