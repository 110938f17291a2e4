package repro

// Observability surface: the tracing probe of Simulate and Plan.Simulate,
// execution profiles with critical-path attribution, Chrome trace / ASCII
// Gantt export, search telemetry and the machine-readable bench ledger.
// See internal/obs for the underlying layer; tracing is strictly opt-in
// (SimOptions.Probe) and a nil probe builds no event:
//
//	tr := repro.NewTracer()
//	res := pl.Simulate(repro.SimOptions{Dynamic: true, Comm: cm, Probe: tr})
//	prof, _ := repro.BuildProfile(tr.Events, res)

import (
	"io"

	"repro/internal/exec"
	"repro/internal/obs"
)

// TraceEvent is one traced task execution: placement, timing, the
// work/comm split of its duration, and the stall (with its causing
// predecessor) the simulator charged before its start.
type TraceEvent = exec.TaskEvent

// Probe receives one TraceEvent per task from a traced simulation
// (SimOptions.Probe).
type Probe = exec.Probe

// Tracer is the standard Probe: it collects every event of one run.
type Tracer = obs.Tracer

// Profile aggregates a traced run: per-processor busy/comm/stall/idle
// breakdown, idle-gap histogram, and the critical path with per-link
// attribution to compute, communication, or the binding constraint.
type Profile = obs.Profile

// ProcProfile is one processor's time breakdown within a Profile.
type ProcProfile = obs.ProcProfile

// PathLink is one task on a Profile's critical path.
type PathLink = obs.PathLink

// SearchTelemetry collects trial counts and the objective trajectory of a
// mapper search when attached via StrategyOptions.Search.
type SearchTelemetry = obs.SearchTelemetry

// BenchRecord is one benchmarked run in the ledger; BenchLedgerSchema
// tags the format.
type BenchRecord = obs.BenchRecord

// Ledger is the machine-readable bench output (BENCH_*.json).
type Ledger = obs.Ledger

// BenchLedgerSchema is the ledger format tag ValidateLedger checks.
const BenchLedgerSchema = obs.LedgerSchema

// NewTracer returns an empty Tracer ready to attach as SimOptions.Probe.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewLedger returns an empty bench ledger with the current schema tag.
func NewLedger() *Ledger { return obs.NewLedger() }

// ValidateLedger checks serialized ledger bytes: schema tag, at least one
// record, every required key present (the CI archive gate).
func ValidateLedger(data []byte) error { return obs.ValidateLedger(data) }

// BuildProfile aggregates the complete event set of one traced simulation
// into a Profile whose totals reconcile with res exactly.
func BuildProfile(events []TraceEvent, res MakespanResult) (*Profile, error) {
	return obs.BuildProfile(events, res)
}

// BuildRealProfile aggregates the per-task events of one real (wall-clock)
// execution — the Events of Plan.Measure — into a Profile. Real events
// need not be time-contiguous (goroutine startup and OS scheduling leave
// uncaused gaps), so this is the tolerant builder: no critical path is
// extracted and stalls are counted only when a blocking predecessor was
// observed.
func BuildRealProfile(events []TraceEvent, p int) (*Profile, error) {
	return obs.RealProfile(events, p)
}

// FormatProfile renders a Profile as a terminal report.
func FormatProfile(p *Profile) string { return obs.FormatProfile(p) }

// WriteChromeTrace exports traced events as Chrome trace-event JSON
// (Perfetto-loadable), one lane per processor.
func WriteChromeTrace(w io.Writer, events []TraceEvent, p int) error {
	return obs.WriteChromeTrace(w, events, p)
}

// WriteTrace exports traced events in the named format ("chrome" or
// "gantt"); unknown formats are refused.
func WriteTrace(w io.Writer, format string, events []TraceEvent, res MakespanResult) error {
	return obs.WriteTrace(w, format, events, res)
}

// Gantt renders traced events as an ASCII per-processor timeline.
func Gantt(events []TraceEvent, p int, makespan int64, width int) string {
	return obs.Gantt(events, p, makespan, width)
}

// TraceFormats lists the supported trace export formats.
func TraceFormats() []string { return obs.TraceFormats() }
