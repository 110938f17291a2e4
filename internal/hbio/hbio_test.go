package hbio

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sparse"
)

func TestParseFormat(t *testing.T) {
	cases := []struct {
		in      string
		perLine int
		kind    byte
		width   int
		prec    int
		wantErr bool
	}{
		{"(16I5)", 16, 'I', 5, 0, false},
		{"(10I8)", 10, 'I', 8, 0, false},
		{"(5E16.8)", 5, 'E', 16, 8, false},
		{"(4D20.12)", 4, 'D', 20, 12, false},
		{"(1P,5E16.8)", 5, 'E', 16, 8, false},
		{"(1P5E16.8)", 5, 'E', 16, 8, false},
		{" (3F10.4) ", 3, 'F', 10, 4, false},
		{"(I5)", 1, 'I', 5, 0, false},
		{"(4G20.12)", 4, 'E', 20, 12, false},
		{"(XYZ)", 0, 0, 0, 0, true},
		{"(5Q10)", 0, 0, 0, 0, true},
		{"(5E)", 0, 0, 0, 0, true},
		{"(10I0)", 0, 0, 0, 0, true},  // a zero width never advances
		{"(E0.12)", 0, 0, 0, 0, true}, // found by FuzzHBRead
		{"(0I8)", 0, 0, 0, 0, true},
	}
	for _, c := range cases {
		f, err := parseFormat(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseFormat(%q): expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFormat(%q): %v", c.in, err)
			continue
		}
		if f.perLine != c.perLine || f.kind != c.kind || f.width != c.width || f.prec != c.prec {
			t.Errorf("parseFormat(%q) = %+v, want %+v", c.in, f, c)
		}
	}
}

func roundTrip(t *testing.T, m *sparse.Matrix, title, key string) (*sparse.Matrix, Header) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, m, title, key); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, hdr, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v\nfile:\n%s", err, buf.String())
	}
	return got, hdr
}

func TestRoundTripWithValues(t *testing.T) {
	m := gen.Grid5(4, 4)
	got, hdr := roundTrip(t, m, "4x4 five-point grid", "GRID44")
	if hdr.Type != "RSA" || hdr.NRow != 16 || hdr.NNZ != m.NNZ() {
		t.Fatalf("header = %+v", hdr)
	}
	if hdr.Title != "4x4 five-point grid" || hdr.Key != "GRID44" {
		t.Fatalf("title/key = %q/%q", hdr.Title, hdr.Key)
	}
	if !sparse.PatternEqual(m, got) {
		t.Fatal("pattern not preserved")
	}
	for k := range m.Val {
		if math.Abs(m.Val[k]-got.Val[k]) > 1e-10 {
			t.Fatalf("value %d: %g vs %g", k, m.Val[k], got.Val[k])
		}
	}
}

func TestRoundTripPatternOnly(t *testing.T) {
	m, _ := sparse.NewPattern(5, [][2]int{{0, 3}, {1, 4}, {2, 3}})
	got, hdr := roundTrip(t, m, "pattern", "PAT")
	if hdr.Type != "PSA" {
		t.Fatalf("type = %q, want PSA", hdr.Type)
	}
	if got.Val != nil {
		t.Fatal("pattern round trip produced values")
	}
	if !sparse.PatternEqual(m, got) {
		t.Fatal("pattern not preserved")
	}
}

func TestRoundTripSuiteProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := gen.Random(30, 1.2, seed)
		var buf bytes.Buffer
		if err := Write(&buf, m, "random", "RND"); err != nil {
			return false
		}
		got, _, err := Read(&buf)
		if err != nil {
			return false
		}
		if !sparse.PatternEqual(m, got) {
			return false
		}
		for k := range m.Val {
			if math.Abs(m.Val[k]-got.Val[k]) > 1e-9*(1+math.Abs(m.Val[k])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReadFortranDExponent(t *testing.T) {
	// Hand-written file using D exponents and a 16I5 index format.
	file := "" +
		"tiny                                                                    TINY    \n" +
		"             4             1             1             2             0\n" +
		"RSA                         2             2             3             0\n" +
		"(16I5)          (16I5)          (2D20.12)           \n" +
		"    1    3    4\n" +
		"    1    2    2\n" +
		"  0.400000000000D+01 -0.100000000000D+01\n" +
		"  0.500000000000D+01\n"
	m, hdr, err := Read(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Key != "TINY" {
		t.Errorf("key = %q", hdr.Key)
	}
	if m.N != 2 || m.NNZ() != 3 {
		t.Fatalf("parsed %v", m)
	}
	if m.At(0, 0) != 4 || m.At(1, 0) != -1 || m.At(1, 1) != 5 {
		t.Fatalf("values wrong: %v %v %v", m.At(0, 0), m.At(1, 0), m.At(1, 1))
	}
}

func TestReadSkipsRHS(t *testing.T) {
	// File with an RHS block that must be skipped (rhsCrd = 1).
	file := "" +
		"with rhs                                                                RHS1    \n" +
		"             5             1             1             1             1\n" +
		"RSA                         2             2             2             0\n" +
		"(16I5)          (16I5)          (2E20.12)           (2E20.12)          \n" +
		"F                           1             0\n" +
		"    1    2    3\n" +
		"    1    2\n" +
		"             1.0E+00             2.0E+00\n" +
		"             9.9E+00             9.9E+00\n"
	m, _, err := Read(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 2 || m.At(0, 0) != 1 || m.At(1, 1) != 2 {
		t.Fatalf("bad parse: %v", m)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"too short": "just one line\n",
		"bad type": "t\n" +
			"             4             1             1             2             0\n" +
			"RUA                         2             2             3             0\n" +
			"(16I5)          (16I5)          (2E20.12)           \n",
		"bad counts": "t\n" +
			"             x             y             z             w\n" +
			"RSA                         2             2             3             0\n" +
			"(16I5)          (16I5)          (2E20.12)           \n",
		"truncated body": "t\n" +
			"             9             3             3             3             0\n" +
			"RSA                         9             9             9             0\n" +
			"(16I5)          (16I5)          (2E20.12)           \n" +
			"    1\n",
	}
	// A valid file but for its RHSCRD, which must not read as "no
	// right-hand side".
	for _, rhs := range []string{"x", "-1"} {
		cases["rhs count "+rhs] = "t\n" +
			"             3             1             1             1" + strings.Repeat(" ", 14-len(rhs)) + rhs + "\n" +
			"RSA                         2             2             2             0\n" +
			"(16I5)          (16I5)          (2E20.12)           \n" +
			"    1    2    3\n" +
			"    1    2\n" +
			"             1.0E+00             2.0E+00\n"
	}
	// Grid9(3, 3) as Write writes it, but for a pointer line whose column
	// loop would skip or misread entries: it must start at 1, never
	// decrease and end one past the last index (NNZ 29).
	var grid bytes.Buffer
	if err := Write(&grid, gen.Grid9(3, 3), "grid", "G3"); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(grid.String(), "\n")
	const ptrLine = "       1       5      10      13      17      22      25      27      29      30\n"
	if lines[4] != ptrLine {
		t.Fatalf("Write's pointer line is %q, want %q", lines[4], ptrLine)
	}
	for name, ptrs := range map[string]string{
		"pointers decrease":       "       1      10       5      13      17      22      25      27      29      30\n",
		"pointers end at NNZ":     "       1       5      10      13      17      22      25      27      29      29\n",
		"pointers start past one": "       3       5      10      13      17      22      25      27      29      30\n",
	} {
		cases[name] = strings.Join(lines[:4], "") + ptrs + strings.Join(lines[5:], "")
	}
	// The same file but for an index line that repeats a row in column 1,
	// or puts column 2's first row above its diagonal.
	const indLine = "       1       2       4       5       2       3       4       5       6       3\n"
	if lines[5] != indLine {
		t.Fatalf("Write's first index line is %q, want %q", lines[5], indLine)
	}
	for name, inds := range map[string]string{
		"row repeated":       "       1       1       4       5       2       3       4       5       6       3\n",
		"row above diagonal": "       1       2       4       5       1       3       4       5       6       3\n",
	} {
		cases[name] = strings.Join(lines[:5], "") + inds + strings.Join(lines[6:], "")
	}
	for name, file := range cases {
		if _, _, err := Read(strings.NewReader(file)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestWriteLongTitleTruncated(t *testing.T) {
	m, _ := sparse.NewPattern(2, nil)
	long := strings.Repeat("x", 100)
	var buf bytes.Buffer
	if err := Write(&buf, m, long, "KEYISLONGER"); err != nil {
		t.Fatal(err)
	}
	_, hdr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(hdr.Title) != 72 || hdr.Key != "KEYISLON" {
		t.Fatalf("title len %d key %q", len(hdr.Title), hdr.Key)
	}
}

func TestRoundTripFullSuite(t *testing.T) {
	for _, tm := range gen.Suite() {
		m := tm.Build()
		got, hdr := roundTrip(t, m, tm.Description, tm.Name)
		if !sparse.PatternEqual(m, got) {
			t.Errorf("%s: pattern not preserved", tm.Name)
		}
		if hdr.NNZ != m.NNZ() {
			t.Errorf("%s: nnz %d vs %d", tm.Name, hdr.NNZ, m.NNZ())
		}
	}
}

func TestReadNeverPanicsOnMutations(t *testing.T) {
	// Failure injection: truncations, deletions and byte flips of a valid
	// file must produce an error or a valid matrix — never a panic or a
	// structurally broken result.
	m := gen.Grid9(6, 6)
	var buf bytes.Buffer
	if err := Write(&buf, m, "mutation base", "MUT"); err != nil {
		t.Fatal(err)
	}
	base := buf.String()
	rng := rand.New(rand.NewSource(99))
	check := func(data string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Read panicked on mutated input: %v", r)
			}
		}()
		got, _, err := Read(strings.NewReader(data))
		if err == nil {
			if vErr := got.Validate(); vErr != nil {
				t.Fatalf("Read returned invalid matrix without error: %v", vErr)
			}
		}
	}
	// Truncations at every line boundary.
	lines := strings.SplitAfter(base, "\n")
	for cut := 0; cut < len(lines); cut++ {
		check(strings.Join(lines[:cut], ""))
	}
	// Random single-byte corruptions.
	for trial := 0; trial < 300; trial++ {
		b := []byte(base)
		pos := rng.Intn(len(b))
		b[pos] = byte(rng.Intn(96) + 32)
		check(string(b))
	}
	// Random line deletions.
	for trial := 0; trial < 50; trial++ {
		keep := make([]string, 0, len(lines))
		drop := rng.Intn(len(lines))
		for i, l := range lines {
			if i != drop {
				keep = append(keep, l)
			}
		}
		check(strings.Join(keep, ""))
	}
}
