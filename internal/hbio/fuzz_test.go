package hbio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
)

// FuzzHBRead holds Read to its contract on bytes nobody picked: an error
// or a valid matrix, never a panic, and a matrix it returns survives
// Write and Read unchanged (Write prints 13 significant digits, so the
// first rewrite may round the values; from then on the text is a fixed
// point). The seeds are TestReadNeverPanicsOnMutations' kinds of mutant —
// truncations, byte flips and deleted lines of a written file — and the
// committed corpus under testdata/fuzz holds more of the same.
func FuzzHBRead(f *testing.F) {
	m := gen.Grid9(4, 4)
	m.SetLaplacianValues(1)
	var buf bytes.Buffer
	if err := Write(&buf, m, "fuzz base", "FUZZ"); err != nil {
		f.Fatal(err)
	}
	base := buf.String()
	lines := strings.SplitAfter(base, "\n")
	rng := rand.New(rand.NewSource(99))
	f.Add([]byte(base))
	for _, cut := range []int{0, 3, 4, 6, len(lines) - 1} {
		f.Add([]byte(strings.Join(lines[:cut], "")))
	}
	for trial := 0; trial < 8; trial++ {
		b := []byte(base)
		b[rng.Intn(len(b))] = byte(rng.Intn(96) + 32)
		f.Add(b)
		drop := rng.Intn(len(lines))
		f.Add([]byte(strings.Join(lines[:drop], "") + strings.Join(lines[drop+1:], "")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m1, _, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := m1.Validate(); err != nil {
			t.Fatalf("Read returned an invalid matrix without error: %v", err)
		}
		var b1, b2 bytes.Buffer
		if err := Write(&b1, m1, "t", "k"); err != nil {
			t.Fatal(err)
		}
		m2, _, err := Read(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("Read rejects what Write wrote: %v", err)
		}
		if !sparse.PatternEqual(m1, m2) || (m1.Val == nil) != (m2.Val == nil) {
			t.Fatal("the pattern changes across Write and Read")
		}
		if err := Write(&b2, m2, "t", "k"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("Write(Read(Write(m))) differs from Write(m)")
		}
	})
}
