package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
)

// ints widens row indices to the ints the reference digest takes.
func ints(rows []int32) []int {
	out := make([]int, len(rows))
	for k, r := range rows {
		out[k] = int(r)
	}
	return out
}

// refSum is refPatternSum of m at the definitional width, or at w if w > 0.
func refSum(m *sparse.Matrix, w int) [sha256.Size]byte {
	rows := ints(m.RowInd)
	if w == 0 {
		w = refWidth(m.ColPtr, rows)
	}
	return refPatternSum(m.N, m.ColPtr, rows, w)
}

// refWidth is the index width by its definition: the narrowest of 2, 4
// and 8 bytes such that every entry x has 0 <= x < 2^(8w).
func refWidth(cols, rows []int) int {
	for _, w := range []int{2, 4} {
		fits := true
		for _, x := range append(slices.Clone(cols), rows...) {
			if x < 0 || uint64(x) >= 1<<(8*w) {
				fits = false
				break
			}
		}
		if fits {
			return w
		}
	}
	return 8
}

// refPatternSum is PatternSum written out one field per Write, at an index
// width the caller names.
func refPatternSum(n int, cols, rows []int, w int) [sha256.Size]byte {
	h := sha256.New()
	word := func(v uint64, size int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:size])
	}
	word(uint64(len("pattern")), 8)
	h.Write([]byte("pattern"))
	for _, v := range []int{n, w, len(cols), len(rows)} {
		word(uint64(v), 8)
	}
	for _, v := range append(slices.Clone(cols), rows...) {
		word(uint64(v), w)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// chain is the valid pattern of n columns where each of the first k
// columns also holds the row below its diagonal: nnz = n + k.
func chain(n, k int) *sparse.Matrix {
	m := &sparse.Matrix{N: n, ColPtr: make([]int, 0, n+1)}
	for j := 0; j < n; j++ {
		m.ColPtr = append(m.ColPtr, len(m.RowInd))
		m.RowInd = append(m.RowInd, int32(j))
		if j < k && j+1 < n {
			m.RowInd = append(m.RowInd, int32(j+1))
		}
	}
	m.ColPtr = append(m.ColPtr, len(m.RowInd))
	return m
}

// TestPatternSumWidth pins the width at its boundaries: N and nnz at
// 2¹⁶ − 1 against 2¹⁶, a row at 2¹⁶ − 1 against 2¹⁶ and at the top of
// int32, a column pointer at 2³² − 1 against 2³² (only ColPtr holds one),
// and negative entries in either array, each against the straight-line
// digest at the width it must take.
func TestPatternSumWidth(t *testing.T) {
	big := int(int64(1)<<32 - 1) // an index only a 64-bit int holds
	withEntry := func(m *sparse.Matrix, at int, v int32) *sparse.Matrix {
		c := m.Clone()
		c.RowInd[at] = v
		return c
	}
	withPtr := func(m *sparse.Matrix, at, v int) *sparse.Matrix {
		c := m.Clone()
		c.ColPtr[at] = v
		return c
	}
	base := chain(10, 9)
	cases := []struct {
		name  string
		m     *sparse.Matrix
		w     int
		valid bool
	}{
		{"N = 2^16-1", chain(1<<16-1, 0), 2, true},
		{"N = 2^16", chain(1<<16, 0), 4, true},
		{"nnz = 2^16-1", chain(40000, 1<<16-1-40000), 2, true},
		{"nnz = 2^16", chain(40000, 1<<16-40000), 4, true},
		{"row 2^16-1", withEntry(base, 3, 1<<16-1), 2, false},
		{"row 2^16", withEntry(base, 3, 1<<16), 4, false},
		{"row MaxInt32", withEntry(base, 3, math.MaxInt32), 4, false},
		{"pointer 2^32-1", withPtr(base, 3, big), 4, false},
		{"pointer 2^32", withPtr(base, 3, big+1), 8, false},
		{"row -1", withEntry(base, 3, -1), 8, false},
		{"row MinInt32", withEntry(base, 3, math.MinInt32), 8, false},
		{"pointer MinInt", withPtr(base, 3, math.MinInt), 8, false},
		{"small", base, 2, true},
	}
	for _, c := range cases {
		if got := c.m.Validate() == nil; got != c.valid {
			t.Fatalf("%s: valid = %v, want %v", c.name, got, c.valid)
		}
		if w := refWidth(c.m.ColPtr, ints(c.m.RowInd)); w != c.w {
			t.Fatalf("%s: the case is %d bytes wide, not %d", c.name, w, c.w)
		}
		if PatternSum(c.m) != refSum(c.m, c.w) {
			t.Fatalf("%s: PatternSum is not the straight-line digest at %d-byte indices", c.name, c.w)
		}
	}
	if PatternSum(cases[0].m) == PatternSum(cases[1].m) || PatternSum(cases[2].m) == PatternSum(cases[3].m) {
		t.Fatal("patterns either side of a width boundary collided")
	}
}

// TestPatternSumInvalid: every malformed pattern hashes without panicking,
// at the width its entries need, and never to its valid twin's digest.
func TestPatternSumInvalid(t *testing.T) {
	twin := gen.Grid9(6, 6)
	mutate := func(f func(m *sparse.Matrix)) *sparse.Matrix {
		c := twin.Clone()
		f(c)
		return c
	}
	bad := []struct {
		name string
		m    *sparse.Matrix
	}{
		{"negative N", mutate(func(m *sparse.Matrix) { m.N = -m.N })},
		{"short ColPtr", mutate(func(m *sparse.Matrix) { m.ColPtr = m.ColPtr[:m.N] })},
		{"nil ColPtr", mutate(func(m *sparse.Matrix) { m.ColPtr = nil })},
		{"nil RowInd", mutate(func(m *sparse.Matrix) { m.RowInd = nil })},
		{"ColPtr[0] != 0", mutate(func(m *sparse.Matrix) { m.ColPtr[0] = 1 })},
		{"decreasing ColPtr", mutate(func(m *sparse.Matrix) { m.ColPtr[2], m.ColPtr[3] = m.ColPtr[3], m.ColPtr[2] })},
		{"missing diagonal", mutate(func(m *sparse.Matrix) { m.RowInd[m.ColPtr[1]] = 2 })},
		{"rows not increasing", mutate(func(m *sparse.Matrix) { m.RowInd[1], m.RowInd[2] = m.RowInd[2], m.RowInd[1] })},
		{"row out of range", mutate(func(m *sparse.Matrix) { m.RowInd[m.ColPtr[1]-1] = int32(m.N) })},
		{"negative row", mutate(func(m *sparse.Matrix) { m.RowInd[1] = -1 })},
		{"huge row", mutate(func(m *sparse.Matrix) { m.RowInd[1] = math.MaxInt32 })},
		{"huge pointer", mutate(func(m *sparse.Matrix) { m.ColPtr[1] = math.MaxInt })},
		{"last pointer moved to the rows", mutate(func(m *sparse.Matrix) {
			m.RowInd = append([]int32{int32(m.ColPtr[m.N])}, m.RowInd...)
			m.ColPtr = m.ColPtr[:m.N]
		})},
	}
	want := PatternSum(twin)
	for _, c := range bad {
		if c.m.Validate() == nil {
			t.Fatalf("%s: the case is valid", c.name)
		}
		got := PatternSum(c.m)
		if got == want {
			t.Fatalf("%s: digest equals its valid twin's", c.name)
		}
		if got != refSum(c.m, 0) {
			t.Fatalf("%s: PatternSum is not the straight-line digest", c.name)
		}
	}
}

// TestInPlaceMatchesStaged: the slices a little-endian host hands to the
// digest in place give the digest the staged loops give, for values and
// 8-byte ints, at every alignment of the staging buffer and across its
// size.
func TestInPlaceMatchesStaged(t *testing.T) {
	for _, n := range []int{0, 1, 7, 511, 512, 513, 4096, 5000} {
		f64s := make([]float64, n)
		ints := make([]int, n)
		for i := range f64s {
			f64s[i] = math.Sqrt(float64(i)) - 3
			ints[i] = i*7919 - n
		}
		if n > 1 {
			f64s[0], f64s[1] = math.Copysign(0, -1), math.NaN()
			ints[0] = math.MinInt
		}
		for _, lead := range []string{"", "x", "seven b"} {
			what := fmt.Sprintf("n = %d after %q", n, lead)
			inPlace, ref := NewHasher("k"), NewHasher("k")
			inPlace.Str(lead)
			ref.Str(lead)
			inPlace.f64s(f64s)
			ref.I64(int64(n))
			staged(ref, f64s, 8, math.Float64bits)
			if inPlace.Sum() != ref.Sum() {
				t.Fatalf("%s: f64s differs from its staged path", what)
			}
			inPlace.Ints(ints)
			ref.I64(int64(n))
			staged(ref, ints, 8, intBits[int])
			if inPlace.Sum() != ref.Sum() {
				t.Fatalf("%s: Ints differs from its staged path", what)
			}
			for _, w := range []int{2, 4, 8} {
				narrowed := make([]int, n)
				rows := make([]int32, n)
				for i, x := range ints {
					narrowed[i] = x & (1<<(8*w-1) - 1)
					rows[i] = int32(narrowed[i])
					if w == 8 {
						rows[i] = int32(x) // negative rows sign-extend
					}
				}
				fixed(inPlace, narrowed, w)
				staged(ref, narrowed, w, intBits[int])
				fixed(inPlace, rows, w)
				staged(ref, rows, w, intBits[int32])
				if inPlace.Sum() != ref.Sum() {
					t.Fatalf("%s: %d-byte indices differ from their staged path", what, w)
				}
			}
		}
	}
}

// TestWarmKeyAllocations: absorbing a string, a key or a sum allocates
// nothing; a whole pattern or values digest costs its Hasher and its
// sha256 state.
func TestWarmKeyAllocations(t *testing.T) {
	m := gen.Grid9(30, 30)
	hs := NewHasher("k")
	k := Key{Kind: "inner", Sum: [sha256.Size]byte{1}}
	if got := testing.AllocsPerRun(20, func() {
		hs.Str("a string")
		hs.Key(k)
		hs.f64s(m.Val)
		hs.Ints(m.ColPtr)
		_ = hs.Sum()
	}); got != 0 {
		t.Fatalf("absorbing fields allocated %.0f times, want 0", got)
	}
	for name, sum := range map[string]func(*sparse.Matrix) [sha256.Size]byte{"PatternSum": PatternSum, "ValuesSum": ValuesSum} {
		if got := testing.AllocsPerRun(20, func() { sum(m) }); got > 2 {
			t.Fatalf("%s allocated %.0f times, want <= 2", name, got)
		}
	}
}

// FuzzPatternSum: PatternSum never panics on fuzzer-written patterns,
// valid or not, with entries either side of 2¹⁶ and negative in both
// arrays, either side of 2³² in ColPtr and at the top of int32 in RowInd,
// whose int32 cannot hold 2³²; it equals the straight-line digest at the
// definitional width; and of two patterns derived from one input (an
// entry changed, an entry moved between the arrays, N changed) the
// digests agree iff N, ColPtr and RowInd do.
func FuzzPatternSum(f *testing.F) {
	// Each entry is three bytes: a range selector and a 16-bit offset.
	entry := func(sel byte, v uint16) []byte { return []byte{sel, byte(v), byte(v >> 8)} }
	seed := func(n int64, cut uint8, op uint8, pos uint16, delta int64, es ...[]byte) {
		f.Add(n, slices.Concat(es...), cut, op, pos, delta)
	}
	seed(3, 4, 0, 1, 1, entry(0, 0), entry(0, 1), entry(0, 2), entry(0, 3), entry(0, 0), entry(0, 1), entry(0, 2))
	seed(2, 3, 0, 2, 1, entry(0, 0), entry(0, 1), entry(0, 0xffff), entry(0, 0), entry(0, 1))
	seed(2, 3, 1, 0, 0, entry(0, 0), entry(1, 0), entry(0, 1), entry(0, 0))
	seed(1<<16, 2, 2, 0, -1, entry(0, 0), entry(0, 0xffff), entry(0, 0xfffe))
	seed(5, 2, 0, 1, 1, entry(2, 0x7fff), entry(2, 0x8000), entry(0, 4))
	seed(5, 1, 0, 0, -1, entry(3, 0), entry(0, 1), entry(3, 0xffff))
	seed(-1, 0, 1, 0, 0)
	f.Fuzz(func(t *testing.T, n int64, data []byte, cut uint8, op uint8, pos uint16, delta int64) {
		a := &sparse.Matrix{N: int(n)}
		c := min(int(cut), len(data)/3)
		for i := 0; i+3 <= len(data); i += 3 {
			v := int64(data[i+1]) | int64(data[i+2])<<8
			switch data[i] % 4 {
			case 1: // either side of 2^16
				v += 1<<16 - 1<<15
			case 2: // either side of 2^32 in ColPtr, the top of int32 in RowInd
				if i/3 < c {
					v += 1<<32 - 1<<15
				} else {
					v += math.MaxInt32 - 0xffff
				}
			case 3:
				v = -1 - v
			}
			if i/3 < c {
				a.ColPtr = append(a.ColPtr, int(v))
			} else {
				a.RowInd = append(a.RowInd, int32(v))
			}
		}
		if got := PatternSum(a); got != refSum(a, 0) {
			t.Fatal("PatternSum is not the straight-line digest")
		}
		b := &sparse.Matrix{N: a.N, ColPtr: slices.Clone(a.ColPtr), RowInd: slices.Clone(a.RowInd)}
		switch op % 3 {
		case 0:
			if all := c + len(b.RowInd); all > 0 {
				i := int(pos) % all
				if i < c {
					b.ColPtr[i] += int(delta)
				} else {
					b.RowInd[i-c] += int32(delta)
				}
			}
		case 1:
			if c > 0 {
				b.RowInd = append([]int32{int32(b.ColPtr[c-1])}, b.RowInd...)
				b.ColPtr = b.ColPtr[:c-1]
			} else if len(b.RowInd) > 0 {
				b.ColPtr = append(b.ColPtr, int(b.RowInd[0]))
				b.RowInd = b.RowInd[1:]
			}
		case 2:
			b.N += int(delta)
		}
		same := a.N == b.N && slices.Equal(a.ColPtr, b.ColPtr) && slices.Equal(a.RowInd, b.RowInd)
		if (PatternSum(a) == PatternSum(b)) != same {
			t.Fatalf("digests equal = %v, patterns equal = %v", !same, same)
		}
	})
}
