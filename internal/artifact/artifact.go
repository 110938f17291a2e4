// Package artifact is a content-addressed in-memory store for the staged
// solver pipeline's expensive artifacts.
//
// The production scenario (ROADMAP: factorization-as-a-service) is that
// users re-solve against recurring sparsity patterns, so the expensive
// stages are keyed by what they actually depend on and served from cache:
// symbolic analyses and mapped schedules by a deterministic hash of the
// CSC *pattern* (plus the stage parameters), numeric factors by
// (pattern, values, kernel). The store is an LRU-bounded map from Key to
// built artifact with hit/miss/eviction counters per artifact kind, and
// deduplicates concurrent builds of the same key so a thundering herd of
// identical requests performs one symbolic analysis, not N.
//
// A warm request pays for reading the caller's matrix, so the digests read
// it at the speed of SHA-256: the pattern is written at the narrowest fixed
// width that holds every index (2 bytes for every index below 2¹⁶), and
// 8-byte words — values, and []int fields on 64-bit hosts — are handed to
// the digest in place on little-endian hosts. This is the only package that
// imports crypto/sha256 or unsafe.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"strconv"
	"unsafe"

	"repro/internal/sparse"
)

// Key addresses one artifact: a kind ("analysis", "plan", "factor", ...)
// plus a collision-resistant digest of everything the artifact was built
// from. Keys are comparable and usable as map keys.
type Key struct {
	Kind string
	Sum  [sha256.Size]byte
}

// String renders the key as kind:hex for logs and error messages.
func (k Key) String() string { return k.Kind + ":" + hex.EncodeToString(k.Sum[:]) }

// littleEndian reports whether the host stores a word in the stream's byte
// order, so a slice of 8-byte words is its own encoding.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Hasher builds a Key from a sequence of typed fields. Every field is
// length- or tag-prefixed, so distinct field sequences can never collide
// by concatenation ambiguity (e.g. ["ab","c"] vs ["a","bc"]). Scalars,
// strings and 8-byte slices are written little-endian at 8 bytes per word
// whatever the host; only PatternSum narrows its indices.
type Hasher struct {
	kind string
	h    hash.Hash
	// buf stages small fields and narrowed indices (n bytes pending) so the
	// digest absorbs blocks, not a few bytes per interface call.
	n   int
	buf [4096]byte
}

// NewHasher starts a digest for an artifact of the given kind. The kind
// is mixed into the digest, so artifacts of different kinds never share a
// Sum even when built from identical inputs.
func NewHasher(kind string) *Hasher {
	hs := &Hasher{kind: kind, h: sha256.New()}
	hs.Str(kind)
	return hs
}

// flush hands the staged bytes to the digest.
func (hs *Hasher) flush() {
	hs.h.Write(hs.buf[:hs.n])
	hs.n = 0
}

// I64 appends one signed integer.
func (hs *Hasher) I64(v int64) {
	if len(hs.buf)-hs.n < 8 {
		hs.flush()
	}
	binary.LittleEndian.PutUint64(hs.buf[hs.n:], uint64(v))
	hs.n += 8
}

// F64 appends one float64 by its IEEE-754 bit pattern (distinguishes
// +0/−0 and preserves NaN payloads: value identity, not numeric equality).
func (hs *Hasher) F64(v float64) { hs.I64(int64(math.Float64bits(v))) }

// Str appends a length-prefixed string.
func (hs *Hasher) Str(s string) {
	hs.I64(int64(len(s)))
	for len(s) > 0 {
		if hs.n == len(hs.buf) {
			hs.flush()
		}
		c := copy(hs.buf[hs.n:], s)
		hs.n += c
		s = s[c:]
	}
}

// Ints appends a length-prefixed []int at 8 bytes per entry.
func (hs *Hasher) Ints(v []int) {
	hs.I64(int64(len(v)))
	if littleEndian && strconv.IntSize == 64 {
		hs.inPlace(unsafe.Pointer(unsafe.SliceData(v)), len(v))
		return
	}
	staged(hs, v, 8, intBits)
}

// F64s appends a length-prefixed []float64 of bit patterns.
func (hs *Hasher) F64s(v []float64) {
	hs.I64(int64(len(v)))
	if littleEndian {
		hs.inPlace(unsafe.Pointer(unsafe.SliceData(v)), len(v))
		return
	}
	staged(hs, v, 8, math.Float64bits)
}

// inPlace hands n 8-byte words at p, already in stream order, to the
// digest without copying them.
func (hs *Hasher) inPlace(p unsafe.Pointer, n int) {
	hs.flush()
	hs.h.Write(unsafe.Slice((*byte)(p), 8*n))
}

// fixed stages v little-endian at w ∈ {2, 4, 8} bytes per entry; every
// entry must fit in w bytes (w = 8 takes any int). A little-endian host
// stores each entry as a native word of w bytes.
func (hs *Hasher) fixed(v []int, w int) {
	switch {
	case !littleEndian:
		staged(hs, v, w, intBits)
	case w == 2:
		narrow[uint16](hs, v)
	case w == 4:
		narrow[uint32](hs, v)
	default:
		narrow[uint64](hs, v)
	}
}

// narrow stages v as native words of type T, a buffer at a time. The
// buffer is flushed to a multiple of T's size first (a flush never moves a
// byte of the stream), so every word is aligned.
func narrow[T uint16 | uint32 | uint64](hs *Hasher, v []int) {
	size := int(unsafe.Sizeof(T(0)))
	for len(v) > 0 {
		if hs.n%size != 0 || len(hs.buf)-hs.n < size {
			hs.flush()
		}
		src := v[:min(len(v), (len(hs.buf)-hs.n)/size)]
		dst := unsafe.Slice((*T)(unsafe.Pointer(&hs.buf[hs.n])), len(src))
		for i, x := range src {
			dst[i] = T(x)
		}
		hs.n += size * len(src)
		v = v[len(src):]
	}
}

// staged writes the low w bytes of each entry's word little-endian, on any
// host: the path of big-endian hosts, and the reference the in-place and
// native-word paths are tested against.
func staged[E int | float64](hs *Hasher, v []E, w int, word func(E) uint64) {
	var b [8]byte
	for _, x := range v {
		if len(hs.buf)-hs.n < w {
			hs.flush()
		}
		binary.LittleEndian.PutUint64(b[:], word(x))
		hs.n += copy(hs.buf[hs.n:], b[:w])
	}
}

func intBits(x int) uint64 { return uint64(x) }

// Key appends another artifact's key (stage chaining: a Plan's digest
// includes its Analysis' key; a Factor's includes its Plan's).
func (hs *Hasher) Key(k Key) {
	hs.Str(k.Kind)
	if len(hs.buf)-hs.n < len(k.Sum) {
		hs.flush()
	}
	hs.n += copy(hs.buf[hs.n:], k.Sum[:])
}

// Sum finalizes the digest. The Hasher may keep absorbing fields after a
// Sum call, producing keys for successive prefixes.
func (hs *Hasher) Sum() Key {
	hs.flush()
	k := Key{Kind: hs.kind}
	copy(k.Sum[:], hs.h.Sum(hs.buf[:0]))
	return k
}

// indexWidth is the narrowest of 2, 4 and 8 bytes that holds every entry
// of cols and rows. A negative entry, which only an invalid matrix has,
// sets the top bit and so takes 8 bytes.
func indexWidth(cols, rows []int) int {
	var or uint64
	for _, x := range cols {
		or |= uint64(x)
	}
	for _, x := range rows {
		or |= uint64(x)
	}
	switch {
	case or < 1<<16:
		return 2
	case or < 1<<32:
		return 4
	}
	return 8
}

// PatternSum digests the CSC sparsity pattern of m — dimension, column
// pointers and row indices, values excluded. It writes N, the index width
// w, both lengths, then ColPtr and RowInd at w bytes per entry, where w is
// the narrowest of 2, 4 and 8 that holds every entry. One pattern has one
// width and the width is framed, so two matrices share a PatternSum iff
// their N, ColPtr and RowInd are equal, whether or not they are valid.
// Deterministic across runs, processes and hosts.
func PatternSum(m *sparse.Matrix) [sha256.Size]byte {
	w := indexWidth(m.ColPtr, m.RowInd)
	hs := NewHasher("pattern")
	hs.I64(int64(m.N))
	hs.I64(int64(w))
	hs.I64(int64(len(m.ColPtr)))
	hs.I64(int64(len(m.RowInd)))
	hs.fixed(m.ColPtr, w)
	hs.fixed(m.RowInd, w)
	return hs.Sum().Sum
}

// ValuesSum digests the numeric values of m by bit pattern. The caller
// pairs it with PatternSum: (pattern, values) addresses the numeric
// content of a matrix exactly.
func ValuesSum(m *sparse.Matrix) [sha256.Size]byte {
	hs := NewHasher("values")
	hs.F64s(m.Val)
	return hs.Sum().Sum
}
