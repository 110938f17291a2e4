package obs

import (
	"strings"
	"testing"

	"repro/internal/exec"
)

// TestRealProfileDegenerateCount checks that zero-duration measured
// events are counted and reported instead of silently contributing
// nothing, while normal events leave the count at zero.
func TestRealProfileDegenerateCount(t *testing.T) {
	events := []exec.TaskEvent{
		{Task: 0, Proc: 0, Start: 0, Finish: 10, Work: 10},
		{Task: 1, Proc: 0, Start: 10, Finish: 10}, // clock swallowed it
		{Task: 2, Proc: 1, Start: 5, Finish: 5},   // and this one
		{Task: 3, Proc: 1, Start: 5, Finish: 9, Work: 4},
	}
	prof, err := RealProfile(events, 2)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Degenerate != 2 {
		t.Errorf("Degenerate = %d, want 2", prof.Degenerate)
	}
	if prof.Procs[0].Tasks != 2 || prof.Procs[1].Tasks != 2 {
		t.Errorf("degenerate events must still count as tasks: %+v", prof.Procs)
	}
	if got := prof.Summary().Degenerate; got != 2 {
		t.Errorf("Summary().Degenerate = %d, want 2", got)
	}
	if out := FormatProfile(prof); !strings.Contains(out, "degenerate events: 2") {
		t.Errorf("FormatProfile does not report the degenerate count:\n%s", out)
	}
	clean, err := RealProfile(events[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Degenerate != 0 {
		t.Errorf("Degenerate = %d on a clean run, want 0", clean.Degenerate)
	}
	if out := FormatProfile(clean); strings.Contains(out, "degenerate") {
		t.Errorf("FormatProfile mentions degenerate events on a clean run:\n%s", out)
	}
}
