package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestFigure2Golden pins `spy -matrix fegrid5 -width 2`, the textual
// reproduction of the paper's Figure 2, byte for byte.
func TestFigure2Golden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "fegrid5_width2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run([]string{"-matrix", "fegrid5", "-width", "2"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(want) {
		t.Errorf("output drifted from testdata/fegrid5_width2.golden:\n%s", stdout.String())
	}
}
