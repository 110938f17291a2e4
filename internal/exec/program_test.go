package exec

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/numeric"
	"repro/internal/sched"
)

// A pivot the serial kernel rejects must come back from the compiled
// engine as the serial kernel's error (a *numeric.NotPositiveDefiniteError
// under this package's prefix) at any worker count, with every worker
// gone, and must leave the Program fit to run again — for whole-column
// tasks and for unit blocks (multi-column tasks) alike.
func TestProgramBadPivotStopsWorkers(t *testing.T) {
	p := buildPipe(gen.Grid9(12, 12), 4, 4)
	want, err := numeric.Factorize(p.m, p.f)
	if err != nil {
		t.Fatal(err)
	}
	// One bad pivot, mid-matrix: columns that do not depend on it see the
	// good values and still factor, so the error is the only one there is.
	bad := *p.m
	bad.Val = append([]float64(nil), p.m.Val...)
	badCol := p.m.N / 2
	bad.Val[bad.ColPtr[badCol]] = -1
	var npd *numeric.NotPositiveDefiniteError
	if _, err := numeric.Factorize(&bad, p.f); !errors.As(err, &npd) {
		t.Fatalf("serial kernel on the bad values: %v", err)
	}
	colName := fmt.Sprintf("at column %d ", npd.Column)

	for _, procs := range []int{1, 2, 16} {
		cols, err := Compile(p.f, procs, columnTasks(p.f, p.ops, p.ew, procs), p.f.ColIndex())
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		blocks, err := CompileBlocks(p.part, sched.BlockMap(p.part, procs))
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		for _, c := range []struct {
			kind string
			pg   *Program
		}{{"columns", cols}, {"blocks", blocks}} {
			pg := c.pg
			before := runtime.NumGoroutine()
			for rep := 0; rep < 20; rep++ {
				_, _, err := pg.Run(&bad, numeric.KernelCholesky, rep%2 == 1)
				var got *numeric.NotPositiveDefiniteError
				if err == nil || !strings.Contains(err.Error(), colName) || !errors.As(err, &got) || *got != *npd {
					t.Fatalf("P=%d %s: err = %v, want one naming column %d", procs, c.kind, err, npd.Column)
				}
			}
			// Run has waited for its workers; give their exits a moment to
			// be counted.
			for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("P=%d %s: %d goroutines, %d before the failing runs", procs, c.kind, runtime.NumGoroutine(), before)
				}
			}
			got, _, err := pg.Run(p.m, numeric.KernelCholesky, false)
			if err != nil {
				t.Fatalf("P=%d %s: good values after a failed run: %v", procs, c.kind, err)
			}
			if q := firstBitDiff(got.Val, want.Val); q >= 0 {
				t.Fatalf("P=%d %s: position %d after a failed run: %g vs %g", procs, c.kind, q, got.Val[q], want.Val[q])
			}
		}
	}
}
