package obs_test

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
)

func TestRealProfileAggregates(t *testing.T) {
	// Two processors; proc 0 starts late (uncaused startup gap), proc 1
	// has a caused stall between its tasks.
	events := []exec.TaskEvent{
		{Task: 0, Proc: 0, Start: 5, Finish: 15, Work: 10, Stall: 5, Cause: -1},
		{Task: 1, Proc: 1, Start: 0, Finish: 8, Work: 8, Stall: 0, Cause: -1},
		{Task: 2, Proc: 1, Start: 16, Finish: 20, Work: 4, Stall: 8, Cause: 0},
	}
	prof, err := obs.RealProfile(events, 2)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Makespan != 20 {
		t.Fatalf("makespan %d, want 20", prof.Makespan)
	}
	if prof.Busy() != 22 {
		t.Fatalf("busy %d, want 22", prof.Busy())
	}
	// Only the caused stall counts; proc 0's startup gap is idle, not stall.
	if prof.Stall() != 8 {
		t.Fatalf("stall %d, want 8", prof.Stall())
	}
	if prof.Procs[0].Idle != 10 || prof.Procs[1].Idle != 8 {
		t.Fatalf("idle split %d/%d, want 10/8", prof.Procs[0].Idle, prof.Procs[1].Idle)
	}
	if prof.Critical != nil {
		t.Fatal("real profile must not extract a critical path")
	}
}

func TestRealProfileRejects(t *testing.T) {
	if _, err := obs.RealProfile(nil, 0); err == nil {
		t.Error("expected error for p = 0")
	}
	bad := []exec.TaskEvent{{Task: 0, Proc: 3, Start: 0, Finish: 1}}
	if _, err := obs.RealProfile(bad, 2); err == nil {
		t.Error("expected error for out-of-range processor")
	}
	rev := []exec.TaskEvent{{Task: 0, Proc: 0, Start: 5, Finish: 2}}
	if _, err := obs.RealProfile(rev, 1); err == nil {
		t.Error("expected error for finish before start")
	}
}
