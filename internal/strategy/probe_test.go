package strategy

// Probe regression harness: tracing is strictly opt-in, so every
// simulator variant must return the same SimResult with a nil probe (the
// zero-overhead path) and with a Tracer attached (probes observe, they
// cannot perturb). The event stream itself must satisfy the
// documented invariants: one event per task, duration == work + comm,
// Stall > 0 exactly when a Cause predecessor is recorded, and the totals
// reconciling with the SimResult.

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// probeFixtures is the bit-identity fixture set: the comm harness
// matrices (generated grid + HB round-trip) plus the paper's LAP30.
func probeFixtures(t testing.TB) map[string]*sparse.Matrix {
	fx := commFixtures(t)
	fx["lap30"] = gen.Lap30()
	return fx
}

// simulate runs exec.Simulate over sc's task graph with sc's own fetch
// attribution in o.Vol/o.Msgs — the test-side spelling of what
// pipeline.Plan.Simulate does with a plan's Tasks and Fetch.
func simulate(sys *Sys, opts Options, sc *sched.Schedule, o exec.SimOptions) exec.SimResult {
	tc := FetchStats(sys, opts, sc)
	o.Vol, o.Msgs = tc.Vol, tc.Msgs
	return exec.Simulate(Tasks(sys, opts, sc), sc.P, o)
}

// simKinds are the four untraced simulator variants ({static, dynamic} x
// {compute, comm}) under one CommModel.
func simKinds(cm exec.CommModel) map[string]exec.SimOptions {
	return map[string]exec.SimOptions{
		"static":      {},
		"dynamic":     {Dynamic: true},
		"comm":        {Comm: cm},
		"commdynamic": {Dynamic: true, Comm: cm},
	}
}

// checkProbeIdentity runs every simulator variant untraced and with a
// Tracer attached, demands equal SimResults, then validates the collected
// event stream.
func checkProbeIdentity(t *testing.T, label string, p, ntasks int, cm exec.CommModel,
	run func(exec.SimOptions) exec.SimResult) {
	t.Helper()
	for kind, o := range simKinds(cm) {
		want := run(o)
		tr := obs.NewTracer()
		o.Probe = tr
		if got := run(o); got != want {
			t.Errorf("%s %s: traced %+v != untraced %+v", label, kind, got, want)
		}
		checkEvents(t, label+" "+kind, tr.Events, want, ntasks, p)
	}
}

// checkEvents validates a complete event stream against its SimResult.
func checkEvents(t *testing.T, label string, events []exec.TaskEvent, res exec.SimResult, ntasks, p int) {
	t.Helper()
	if len(events) != ntasks {
		t.Errorf("%s: %d events for %d tasks", label, len(events), ntasks)
		return
	}
	seen := make(map[int32]bool, len(events))
	var work, comm, maxFinish int64
	for _, ev := range events {
		if seen[ev.Task] {
			t.Fatalf("%s: duplicate event for task %d", label, ev.Task)
		}
		seen[ev.Task] = true
		if ev.Proc < 0 || int(ev.Proc) >= p {
			t.Fatalf("%s: task %d on processor %d of %d", label, ev.Task, ev.Proc, p)
		}
		if ev.Finish-ev.Start != ev.Work+ev.Comm {
			t.Fatalf("%s: task %d duration %d != work %d + comm %d",
				label, ev.Task, ev.Finish-ev.Start, ev.Work, ev.Comm)
		}
		if ev.Start-ev.Stall < 0 {
			t.Fatalf("%s: task %d stall %d reaches before t=0 (start %d)", label, ev.Task, ev.Stall, ev.Start)
		}
		if (ev.Stall > 0) != (ev.Cause >= 0) {
			t.Fatalf("%s: task %d stall %d with cause %d (want stall>0 iff cause>=0)",
				label, ev.Task, ev.Stall, ev.Cause)
		}
		work += ev.Work
		comm += ev.Comm
		if ev.Finish > maxFinish {
			maxFinish = ev.Finish
		}
	}
	if comm != res.Comm {
		t.Errorf("%s: event comm sums to %d, SimResult.Comm %d", label, comm, res.Comm)
	}
	if work+comm != res.TotalWork {
		t.Errorf("%s: event work+comm sums to %d, SimResult.TotalWork %d", label, work+comm, res.TotalWork)
	}
	if ntasks > 0 && maxFinish != res.Makespan {
		t.Errorf("%s: latest event finish %d, SimResult.Makespan %d", label, maxFinish, res.Makespan)
	}
}

// TestProbeBitIdentity: for every registered strategy on the LAP30 and HB
// fixtures at P in {1, 4, 16}, all four simulator variants return
// bit-identical SimResults untraced and with a Tracer attached — and the
// traced event stream reconciles with the result.
func TestProbeBitIdentity(t *testing.T) {
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	for mname, m := range probeFixtures(t) {
		sys := newTestSys(t, m)
		for _, name := range Names() {
			for _, p := range []int{1, 4, 16} {
				sc, err := Map(name, sys, p, Options{})
				if err != nil {
					t.Fatalf("%s/%s P=%d: %v", name, mname, p, err)
				}
				ntasks := len(Tasks(sys, Options{}, sc))
				label := fmt.Sprintf("%s/%s P=%d", name, mname, p)
				checkProbeIdentity(t, label, p, ntasks, cm, func(o exec.SimOptions) exec.SimResult {
					return simulate(sys, Options{}, sc, o)
				})
			}
		}
	}
}
