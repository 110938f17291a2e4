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
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

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

// Hasher builds a Key from a sequence of typed fields. Every field is
// length- or tag-prefixed, so distinct field sequences can never collide
// by concatenation ambiguity (e.g. ["ab","c"] vs ["a","bc"]).
type Hasher struct {
	kind string
	h    hash.Hash
	// buf stages the fixed-width fields (n bytes pending) so the digest
	// absorbs blocks, not 8 bytes per interface call; same byte stream.
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
	if hs.n == len(hs.buf) {
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
	hs.flush()
	hs.h.Write([]byte(s))
}

// Ints appends a length-prefixed []int.
func (hs *Hasher) Ints(v []int) {
	hs.I64(int64(len(v)))
	for _, x := range v {
		hs.I64(int64(x))
	}
}

// F64s appends a length-prefixed []float64 of bit patterns.
func (hs *Hasher) F64s(v []float64) {
	hs.I64(int64(len(v)))
	for _, x := range v {
		hs.F64(x)
	}
}

// Key appends another artifact's key (stage chaining: a Plan's digest
// includes its Analysis' key; a Factor's includes its Plan's).
func (hs *Hasher) Key(k Key) {
	hs.Str(k.Kind)
	hs.h.Write(k.Sum[:])
}

// Sum finalizes the digest. The Hasher may keep absorbing fields after a
// Sum call, producing keys for successive prefixes.
func (hs *Hasher) Sum() Key {
	var k Key
	k.Kind = hs.kind
	hs.flush()
	hs.h.Sum(k.Sum[:0])
	return k
}

// PatternSum digests the CSC sparsity pattern of m — dimension, column
// pointers and row indices, values excluded. Deterministic across runs
// and processes; two matrices share a PatternSum iff sparse.PatternEqual
// holds.
func PatternSum(m *sparse.Matrix) [sha256.Size]byte {
	hs := NewHasher("pattern")
	hs.I64(int64(m.N))
	hs.Ints(m.ColPtr)
	hs.Ints(m.RowInd)
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
