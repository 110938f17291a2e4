package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLap30Golden pins the deterministic lines of `sparsefactor -matrix
// LAP30 -procs 16 -grain 25 -solve` (header, both mappings' traffic,
// balance and delays) byte for byte. The two solve lines carry a residual
// and wall-clock times: the residual is bounded and the staged cache's
// counters are exact.
func TestLap30Golden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "lap30_p16_g25.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run([]string{"-matrix", "LAP30", "-procs", "16", "-grain", "25", "-solve"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	residual, cache := -1.0, ""
	for _, line := range strings.SplitAfter(stdout.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "solve:"):
			if _, err := fmt.Sscanf(line, "solve: residual=%g", &residual); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
		case strings.HasPrefix(line, "  staged cache:"):
			cache = line
		default:
			got.WriteString(line)
		}
	}
	if got.String() != string(want) {
		t.Errorf("output drifted from testdata/lap30_p16_g25.golden:\n%s", got.String())
	}
	if residual < 0 || residual > 1e-10 {
		t.Errorf("residual = %g, want within [0, 1e-10]", residual)
	}
	if !strings.HasSuffix(cache, " hits=3 misses=3\n") {
		t.Errorf("staged cache line %q, want hits=3 misses=3", cache)
	}
}

// TestRejectsUnknownSchemeAndAlloc pins the fail-fast contract: a -scheme
// or -alloc outside its value list is an error naming the list, returned
// before the matrix is built or anything is printed.
func TestRejectsUnknownSchemeAndAlloc(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scheme", "bogus"}, `unknown -scheme "bogus" (accepted: block, wrap, both)`},
		{[]string{"-alloc", "nope"}, `unknown -alloc "nope" (accepted: paper, greedy)`},
	} {
		var stdout bytes.Buffer
		err := run(tc.args, &stdout, io.Discard)
		if err == nil || err.Error() != tc.want {
			t.Errorf("sparsefactor %v: error %v, want %q", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("sparsefactor %v printed %q before rejecting", tc.args, stdout.String())
		}
	}
}
