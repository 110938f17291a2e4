package obs

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/sched"
)

// RealProfile aggregates the events of one real (wall-clock) execution —
// exec.Program.Measure's per-task timings — into a Profile. It is the
// tolerant sibling of BuildProfile: real events live on a nanosecond
// timeline where a worker's first task can start after t = 0 with no
// causing predecessor (goroutine startup, OS scheduling), so the
// time-contiguity invariants BuildProfile enforces do not hold and no
// critical path is extracted (Critical stays nil). Everything else — the
// per-processor busy/comm/stall/idle breakdown and the idle-gap histogram
// — carries over, with the makespan taken as the latest finish.
//
// Events whose measured duration collapsed to zero nanoseconds (the clock
// resolution swallowed a sub-tick task) are counted in the profile's
// Degenerate field rather than dropped silently: they still count toward
// Tasks but add nothing to Busy, so the count is what makes the
// clock-resolution artifact visible.
func RealProfile(events []exec.TaskEvent, p int) (*Profile, error) {
	if err := sched.CheckProcs("obs", p); err != nil {
		return nil, err
	}
	prof := &Profile{P: p, Procs: make([]ProcProfile, p)}
	perProc := make([][]exec.TaskEvent, p)
	for _, ev := range events {
		if ev.Proc < 0 || int(ev.Proc) >= p {
			return nil, fmt.Errorf("obs: event for task %d on processor %d, run had %d", ev.Task, ev.Proc, p)
		}
		if ev.Finish < ev.Start {
			return nil, fmt.Errorf("obs: task %d finishes at %d before its start %d", ev.Task, ev.Finish, ev.Start)
		}
		if ev.Finish == ev.Start {
			prof.Degenerate++
		}
		if ev.Finish > prof.Makespan {
			prof.Makespan = ev.Finish
		}
		perProc[ev.Proc] = append(perProc[ev.Proc], ev)
	}
	prof.aggregate(perProc)
	return prof, nil
}
