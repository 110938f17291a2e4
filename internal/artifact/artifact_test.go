package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/order"
)

// TestPatternSumDeterministic pins the content addressing: rebuilding the
// same matrix yields the same digest, a permuted matrix or a different
// pattern yields a different one, and values never influence PatternSum.
func TestPatternSumDeterministic(t *testing.T) {
	a := gen.Grid9(8, 8)
	b := gen.Grid9(8, 8)
	if PatternSum(a) != PatternSum(b) {
		t.Fatal("identical patterns produced different digests")
	}
	patternOnly := *a
	patternOnly.Val = nil
	if PatternSum(a) != PatternSum(&patternOnly) {
		t.Fatal("values leaked into the pattern digest")
	}
	perm := order.MMD(a)
	pm, err := a.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	if PatternSum(a) == PatternSum(pm) {
		t.Fatal("MMD-permuted pattern collided with the original")
	}
	if PatternSum(a) == PatternSum(gen.Grid9(8, 9)) {
		t.Fatal("different patterns collided")
	}
	if PatternSum(a) == PatternSum(gen.Grid5(8, 8)) {
		t.Fatal("5-point and 9-point patterns collided")
	}
}

// TestValuesSum pins that the values digest distinguishes numerically
// different matrices over one shared pattern.
func TestValuesSum(t *testing.T) {
	a := gen.Grid9(6, 6)
	b := gen.Grid9(6, 6)
	if ValuesSum(a) != ValuesSum(b) {
		t.Fatal("identical values produced different digests")
	}
	b.Val[len(b.Val)/2] += 1e-12
	if ValuesSum(a) == ValuesSum(b) {
		t.Fatal("perturbed values collided")
	}
}

// TestHasherPrefixSafety pins the anti-ambiguity framing: field sequences
// that concatenate to the same bytes must not collide.
func TestHasherPrefixSafety(t *testing.T) {
	h1 := NewHasher("x")
	h1.Str("ab")
	h1.Str("c")
	h2 := NewHasher("x")
	h2.Str("a")
	h2.Str("bc")
	if h1.Sum() == h2.Sum() {
		t.Fatal("length prefixing failed: [ab,c] == [a,bc]")
	}
	if NewHasher("a").Sum() == NewHasher("b").Sum() {
		t.Fatal("kind not mixed into digest")
	}
}

// TestHasherMatchesStraightLineSHA256 feeds the same fields to a Hasher
// and, one Write each, to a bare sha256: the staging buffer must not move
// a byte of the stream, or every stored Key silently re-keys. The slices
// straddle the buffer size, Sum is taken mid-stream and the stream goes
// on, and the pattern and values digests are rebuilt by hand.
func TestHasherMatchesStraightLineSHA256(t *testing.T) {
	ref := sha256.New()
	le := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		ref.Write(b[:])
	}
	str := func(s string) { le(uint64(len(s))); ref.Write([]byte(s)) }
	check := func(hs *Hasher, what string) {
		t.Helper()
		var want [sha256.Size]byte
		ref.Sum(want[:0])
		if got := hs.Sum(); got.Sum != want || got.Kind != "kind" {
			t.Fatalf("%s: staged digest differs from the straight-line one", what)
		}
	}
	hs := NewHasher("kind")
	str("kind")
	check(hs, "kind only")
	for _, n := range []int{0, 1, 511, 512, 513, 1024, 5000} {
		ints := make([]int, n)
		f64s := make([]float64, n)
		for i := range ints {
			ints[i] = i*7919 - n
			f64s[i] = math.Sqrt(float64(i)) - 3
		}
		hs.Ints(ints)
		le(uint64(n))
		for _, v := range ints {
			le(uint64(int64(v)))
		}
		check(hs, fmt.Sprintf("Ints(%d)", n))
		hs.F64s(f64s)
		le(uint64(n))
		for _, v := range f64s {
			le(math.Float64bits(v))
		}
		hs.Str("between")
		str("between")
		hs.I64(-1)
		le(math.MaxUint64)
		hs.F64(math.Copysign(0, -1))
		le(1 << 63)
		inner := Key{Kind: "inner", Sum: [sha256.Size]byte{1, 2, 3, byte(n)}}
		hs.Key(inner)
		str("inner")
		ref.Write(inner.Sum[:])
		check(hs, fmt.Sprintf("after %d", n))
	}

	m := gen.Grid9(30, 30) // 900 column pointers, ~4 000 indices and values
	ref.Reset()
	str("pattern")
	le(uint64(m.N))
	le(uint64(len(m.ColPtr)))
	for _, v := range m.ColPtr {
		le(uint64(v))
	}
	le(uint64(len(m.RowInd)))
	for _, v := range m.RowInd {
		le(uint64(v))
	}
	var want [sha256.Size]byte
	ref.Sum(want[:0])
	if PatternSum(m) != want {
		t.Fatal("PatternSum differs from the straight-line digest")
	}
	ref.Reset()
	str("values")
	le(uint64(len(m.Val)))
	for _, v := range m.Val {
		le(math.Float64bits(v))
	}
	ref.Sum(want[:0])
	if ValuesSum(m) != want {
		t.Fatal("ValuesSum differs from the straight-line digest")
	}
}

func key(kind string, i int) Key {
	h := NewHasher(kind)
	h.I64(int64(i))
	return h.Sum()
}

func TestStoreHitMissEvict(t *testing.T) {
	s := NewStore(2)
	builds := 0
	get := func(i int) any {
		v, _, err := s.GetOrBuild(key("k", i), func() (any, error) {
			builds++
			return i * 10, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := get(1); got != 10 {
		t.Fatalf("built %v, want 10", got)
	}
	if got := get(1); got != 10 {
		t.Fatalf("cached %v, want 10", got)
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}
	get(2)
	get(3) // evicts key 1 (LRU)
	if got := s.Stats(); got.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", got.Evictions)
	}
	get(1) // rebuilt
	if builds != 4 {
		t.Fatalf("builds = %d, want 4 (1,2,3,1-again)", builds)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("stats = %+v, want 1 hit / 4 misses", st)
	}
	byKind := s.StatsByKind()
	if byKind["k"] != st {
		t.Fatalf("per-kind stats %+v != totals %+v", byKind["k"], st)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
}

func TestStoreBuildErrorNotCached(t *testing.T) {
	s := NewStore(0)
	wantErr := errors.New("boom")
	k := key("k", 7)
	_, _, err := s.GetOrBuild(k, func() (any, error) { return nil, wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	v, cached, err := s.GetOrBuild(k, func() (any, error) { return 42, nil })
	if err != nil || cached || v != 42 {
		t.Fatalf("retry after failed build: v=%v cached=%v err=%v", v, cached, err)
	}
	if got := s.Stats().Evictions; got != 0 {
		t.Fatalf("failed build counted as eviction: %d", got)
	}
}

// Regression: a panicking build used to leave the entry's done channel
// open, so every waiter blocked forever and the entry stayed pinned
// against eviction. The panic must reach builder and waiter as an error,
// and the key must be gone and buildable again.
func TestStoreBuildPanicReleasesWaiters(t *testing.T) {
	s := NewStore(1)
	k := key("k", 1)
	building := make(chan struct{})
	release := make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		_, _, err := s.GetOrBuild(k, func() (any, error) {
			close(building)
			<-release
			panic("boom")
		})
		errs <- err
	}()
	<-building
	go func() {
		_, _, err := s.GetOrBuild(k, func() (any, error) { return "second build", nil })
		errs <- err
	}()
	// The waiter is counted as a hit once it has found the in-flight entry.
	for s.Stats().Hits == 0 {
		runtime.Gosched()
	}
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "artifact: build panicked: boom") {
				t.Fatalf("err = %v, want the build panic", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("GetOrBuild still blocked after its build panicked")
		}
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("len = %d after a panicked build, want 0", n)
	}
	v, cached, err := s.GetOrBuild(k, func() (any, error) { return 42, nil })
	if err != nil || cached || v != 42 {
		t.Fatalf("rebuild after panic: v=%v cached=%v err=%v", v, cached, err)
	}
}

// TestStoreConcurrentDedup hammers one key from many goroutines: exactly
// one build may run, everyone shares its result. Run under -race this is
// also the store's data-race test.
func TestStoreConcurrentDedup(t *testing.T) {
	s := NewStore(8)
	var mu sync.Mutex
	builds := 0
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := key("k", i%4)
				v, _, err := s.GetOrBuild(k, func() (any, error) {
					mu.Lock()
					builds++
					mu.Unlock()
					return fmt.Sprintf("v%d", i%4), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v != fmt.Sprintf("v%d", i%4) {
					t.Errorf("got %v for key %d", v, i%4)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if builds > 4 {
		// Dedup is best-effort only across a drop/rebuild boundary, but
		// with no errors and capacity 8 > 4 keys nothing is ever dropped.
		t.Fatalf("builds = %d, want <= 4", builds)
	}
	st := s.Stats()
	if st.Hits+st.Misses != 32*20 {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 32*20)
	}
}
