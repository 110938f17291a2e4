package artifact

import (
	"container/list"
	"fmt"
	"sync"
)

// Counts are the cache counters of one artifact kind (or the store-wide
// totals): GetOrBuild calls that found a finished or in-flight entry
// (Hits), calls that built (Misses), and completed entries dropped by the
// LRU bound (Evictions). Failed builds are not cached and not counted as
// evictions when removed.
type Counts struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Store is a content-addressed LRU cache of built artifacts. The zero
// value is not usable; construct with NewStore. All methods are safe for
// concurrent use, and concurrent GetOrBuild calls for the same key are
// deduplicated: one caller builds, the rest block until the build
// finishes and share its result.
type Store struct {
	mu     sync.Mutex
	cap    int        // max completed+inflight entries; <= 0 means unbounded
	ll     *list.List // front = most recently used
	items  map[Key]*entry
	byKind map[string]*Counts
	total  Counts
}

type entry struct {
	key  Key
	elem *list.Element
	done chan struct{} // closed when build completes (val/err valid after)
	val  any
	err  error
}

// NewStore builds a store bounded to capacity entries (counting every
// kind together); capacity <= 0 means unbounded.
func NewStore(capacity int) *Store {
	return &Store{
		cap:    capacity,
		ll:     list.New(),
		items:  make(map[Key]*entry),
		byKind: make(map[string]*Counts),
	}
}

// GetOrBuild returns the artifact stored under k, building it with build
// on a miss. The second result reports whether the artifact came from the
// cache (true also when this call joined another caller's in-flight
// build). A build error — or a panic in build, reported as an error — is
// returned to every waiting caller and the entry is dropped, so a later
// call retries.
func (s *Store) GetOrBuild(k Key, build func() (any, error)) (any, bool, error) {
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		s.ll.MoveToFront(e.elem)
		s.kindLocked(k.Kind).Hits++
		s.total.Hits++
		s.mu.Unlock()
		<-e.done
		return e.val, true, e.err
	}
	e := &entry{key: k, done: make(chan struct{})}
	e.elem = s.ll.PushFront(e)
	s.items[k] = e
	s.kindLocked(k.Kind).Misses++
	s.total.Misses++
	s.mu.Unlock()

	e.val, e.err = runBuild(build)
	close(e.done)

	s.mu.Lock()
	if e.err != nil {
		s.dropLocked(e)
	} else {
		s.evictLocked()
	}
	s.mu.Unlock()
	return e.val, false, e.err
}

// runBuild calls build, turning a panic into an error: an entry whose
// done channel never closed would block its waiters forever and stay
// pinned against eviction.
func runBuild(build func() (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			val, err = nil, fmt.Errorf("artifact: build panicked: %v", r)
		}
	}()
	return build()
}

// Len returns the number of entries (completed and in-flight).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// Stats returns the store-wide counter totals.
func (s *Store) Stats() Counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// StatsByKind returns a copy of the per-kind counters.
func (s *Store) StatsByKind() map[string]Counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Counts, len(s.byKind))
	//repro:allow maporder -- order-insensitive map-to-map copy; callers that render it (tables) sort the keys themselves
	for k, c := range s.byKind {
		out[k] = *c
	}
	return out
}

// kindLocked returns the counter struct for one kind; callers hold s.mu.
func (s *Store) kindLocked(name string) *Counts {
	c, ok := s.byKind[name]
	if !ok {
		c = &Counts{}
		s.byKind[name] = c
	}
	return c
}

// dropLocked removes a (failed) entry without counting an eviction;
// callers hold s.mu. The entry may already be gone if eviction raced
// ahead.
func (s *Store) dropLocked(e *entry) {
	if cur, ok := s.items[e.key]; ok && cur == e {
		delete(s.items, e.key)
		s.ll.Remove(e.elem)
	}
}

// evictLocked enforces the LRU bound, skipping in-flight builds (they
// are pinned until they finish); callers hold s.mu.
func (s *Store) evictLocked() {
	if s.cap <= 0 {
		return
	}
	for el := s.ll.Back(); el != nil && len(s.items) > s.cap; {
		prev := el.Prev()
		e := el.Value.(*entry)
		select {
		case <-e.done:
			delete(s.items, e.key)
			s.ll.Remove(el)
			s.kindLocked(e.key.Kind).Evictions++
			s.total.Evictions++
		default:
			// still building: pinned
		}
		el = prev
	}
}
