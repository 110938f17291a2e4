package exec

// SimResult degenerate-case pins: finalize is the single place the
// summary fields are derived, and these tests lock its contract — a
// zero-span run (empty task list, or all-zero work) reports Idle = 0 and
// Efficiency = 1; with more processors than tasks Idle stays non-negative
// and exactly P*Makespan - TotalWork. All four simulators (static and
// dynamic, compute-only and comm-aware) share the same finalize.

import (
	"fmt"
	"testing"
)

// edgeSims enumerates the four simulators behind a uniform signature
// (the comm-aware pair gets zero per-task volumes and messages).
func edgeSims(cm CommModel) []struct {
	name string
	run  func(tasks []Task, p int) SimResult
} {
	zeroVec := func(n int) []int64 { return make([]int64, n) }
	return []struct {
		name string
		run  func(tasks []Task, p int) SimResult
	}{
		{"static", func(ts []Task, p int) SimResult { return Simulate(ts, p, SimOptions{}) }},
		{"dynamic", func(ts []Task, p int) SimResult { return Simulate(ts, p, SimOptions{Dynamic: true}) }},
		{"comm", func(ts []Task, p int) SimResult {
			return Simulate(ts, p, SimOptions{Comm: cm, Vol: zeroVec(len(ts)), Msgs: zeroVec(len(ts))})
		}},
		{"commdynamic", func(ts []Task, p int) SimResult {
			return Simulate(ts, p, SimOptions{Dynamic: true, Comm: cm, Vol: zeroVec(len(ts)), Msgs: zeroVec(len(ts))})
		}},
	}
}

// TestSimulateEmptyTaskList: an empty task list is a degenerate but legal
// input; every simulator must report Makespan 0, Idle 0 and Efficiency 1
// (not 0/0 = NaN) at any P.
func TestSimulateEmptyTaskList(t *testing.T) {
	cm := CommModel{Alpha: 2, Beta: 10}
	for _, sim := range edgeSims(cm) {
		for _, p := range []int{1, 4, 16} {
			got := sim.run(nil, p)
			want := SimResult{P: p, Efficiency: 1}
			if got != want {
				t.Errorf("%s P=%d on empty task list: %+v, want %+v", sim.name, p, got, want)
			}
		}
	}
}

// TestSimulateZeroWork: tasks exist but carry no work, so the span is 0;
// the degenerate contract (Idle 0, Efficiency 1) applies, and the probe
// still sees one event per task.
func TestSimulateZeroWork(t *testing.T) {
	cm := CommModel{Alpha: 2, Beta: 10}
	tasks := []Task{
		{Proc: 0},
		{Proc: 1, Preds: []int32{0}},
		{Proc: 0, Preds: []int32{1}},
	}
	for _, sim := range edgeSims(cm) {
		got := sim.run(tasks, 4)
		want := SimResult{P: 4, Efficiency: 1}
		if got != want {
			t.Errorf("%s on zero-work tasks: %+v, want %+v", sim.name, got, want)
		}
	}
	var events []TaskEvent
	probe := probeFunc(func(ev TaskEvent) { events = append(events, ev) })
	Simulate(tasks, 4, SimOptions{Probe: probe})
	if len(events) != len(tasks) {
		t.Errorf("probe saw %d events for %d zero-work tasks", len(events), len(tasks))
	}
}

type probeFunc func(TaskEvent)

func (f probeFunc) OnTask(ev TaskEvent) { f(ev) }

// TestSimulateMoreProcsThanTasks: P far above the task count leaves most
// processors idle forever; Idle must be exactly P*Makespan - TotalWork
// (never negative) and Efficiency the matching ratio. The two-task chain
// also pins the stall attribution: the dependent task's event records the
// full wait with its causing predecessor.
func TestSimulateMoreProcsThanTasks(t *testing.T) {
	cm := CommModel{Alpha: 2, Beta: 10}
	tasks := []Task{
		{Proc: 0, Work: 7},
		{Proc: 3, Work: 5, Preds: []int32{0}},
	}
	const p = 16
	want := SimResult{P: p, Makespan: 12, TotalWork: 12, Idle: 16*12 - 12, Efficiency: 12.0 / (16 * 12)}
	for _, sim := range edgeSims(cm) {
		if got := sim.run(tasks, p); got != want {
			t.Errorf("%s P=%d: %+v, want %+v", sim.name, p, got, want)
		}
	}
	for _, probed := range []struct {
		name string
		run  func(Probe) SimResult
	}{
		{"static", func(pr Probe) SimResult { return Simulate(tasks, p, SimOptions{Probe: pr}) }},
		{"dynamic", func(pr Probe) SimResult { return Simulate(tasks, p, SimOptions{Dynamic: true, Probe: pr}) }},
	} {
		var events []TaskEvent
		res := probed.run(probeFunc(func(ev TaskEvent) { events = append(events, ev) }))
		if res != want {
			t.Errorf("%s probed: %+v, want %+v", probed.name, res, want)
		}
		if len(events) != 2 {
			t.Fatalf("%s: %d events, want 2", probed.name, len(events))
		}
		for _, ev := range events {
			if ev.Task == 1 {
				if ev.Stall != 7 || ev.Cause != 0 {
					t.Errorf("%s: dependent task stall=%d cause=%d, want stall=7 cause=0 %s",
						probed.name, ev.Stall, ev.Cause, fmt.Sprintf("(event %+v)", ev))
				}
			}
		}
	}
}

// TestSimulateSingleTask sanity-pins the non-degenerate formulas on the
// smallest real input: one task on one of two processors.
func TestSimulateSingleTask(t *testing.T) {
	tasks := []Task{{Proc: 1, Work: 10}}
	want := SimResult{P: 2, Makespan: 10, TotalWork: 10, Idle: 10, Efficiency: 0.5}
	if got := Simulate(tasks, 2, SimOptions{}); got != want {
		t.Errorf("static: %+v, want %+v", got, want)
	}
	if got := Simulate(tasks, 2, SimOptions{Dynamic: true}); got != want {
		t.Errorf("dynamic: %+v, want %+v", got, want)
	}
}
