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
	"repro/internal/sparse"
)

// A pivot the serial kernel rejects must come back from the compiled
// engine as the serial kernel's error (a *numeric.NotPositiveDefiniteError
// under this package's prefix) at any worker count, with every worker
// gone, and must leave the Program fit to run again — for whole-column
// tasks and for unit blocks (multi-column tasks) alike, and at P = 2 for
// a wrap column split into two tasks whose second half finds the bad
// pivot while the other worker may be polling its empty queue.
func TestProgramBadPivotStopsWorkers(t *testing.T) {
	p := buildPipe(gen.Grid9(12, 12), 4, 4)
	want, err := numeric.Factorize(p.m, p.f)
	if err != nil {
		t.Fatal(err)
	}
	// One bad pivot: columns that do not depend on it see the good values
	// and still factor, so the error is the only one there is.
	badAt := func(col int) (*sparse.Matrix, *numeric.NotPositiveDefiniteError) {
		bad := *p.m
		bad.Val = append([]float64(nil), p.m.Val...)
		bad.Val[bad.ColPtr[col]] = -1
		var npd *numeric.NotPositiveDefiniteError
		if _, err := numeric.Factorize(&bad, p.f); !errors.As(err, &npd) {
			t.Fatalf("serial kernel on a bad pivot at column %d: %v", col, err)
		}
		return &bad, npd
	}
	type kind struct {
		name string
		pg   *Program
		bad  *sparse.Matrix
		npd  *numeric.NotPositiveDefiniteError
	}
	var kinds []kind
	mid, midErr := badAt(p.m.N / 2) // mid-matrix
	for _, procs := range []int{1, 2, 16} {
		cols, err := Compile(p.f, procs, columnTasks(p.f, p.ops, p.ew, procs), nil)
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		blocks, err := compileBlocks(p.part, sched.BlockMap(p.part, procs))
		if err != nil {
			t.Fatalf("P=%d: %v", procs, err)
		}
		kinds = append(kinds,
			kind{fmt.Sprintf("P=%d columns", procs), cols, mid, midErr},
			kind{fmt.Sprintf("P=%d blocks", procs), blocks, mid, midErr})
		if procs == 2 {
			if len(cols.first) == 0 {
				t.Fatal("P=2: wrap splits no column")
			}
			bad, npd := badAt(int(cols.first[len(cols.first)/2]))
			kinds = append(kinds, kind{"P=2 split column", cols, bad, npd})
		}
	}
	for _, c := range kinds {
		pg := c.pg
		colName := fmt.Sprintf("at column %d ", c.npd.Column)
		before := runtime.NumGoroutine()
		for rep := 0; rep < 20; rep++ {
			_, _, err := pg.Run(c.bad, numeric.KernelCholesky, rep%2 == 1)
			var got *numeric.NotPositiveDefiniteError
			if err == nil || !strings.Contains(err.Error(), colName) || !errors.As(err, &got) || *got != *c.npd {
				t.Fatalf("%s: err = %v, want one naming column %d", c.name, err, c.npd.Column)
			}
		}
		// Run has waited for its workers; give their exits a moment to
		// be counted.
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before the failing runs", c.name, runtime.NumGoroutine(), before)
			}
		}
		got, _, err := pg.Run(p.m, numeric.KernelCholesky, false)
		if err != nil {
			t.Fatalf("%s: good values after a failed run: %v", c.name, err)
		}
		if q := firstBitDiff(got.Val, want.Val); q >= 0 {
			t.Fatalf("%s: position %d after a failed run: %g vs %g", c.name, q, got.Val[q], want.Val[q])
		}
	}
}
