package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// The augmented AVL interval tree the dependency pass stabbed before the
// partition's own sorted boundaries replaced it (it was package
// internal/interval, whose only importer was deps.go). It lives on as
// test-only code: refComputeDeps in deps_ref_test.go, the pre-change
// dependency pass that the flat one is held to, queries it exactly as
// before. Its own tests moved here with it.
//
// Intervals are closed integer ranges [Lo, Hi] carrying an integer payload
// (a unit-block or cluster index). The tree is keyed on (Lo, Hi, ID) and
// augmented with the subtree maximum of Hi, the classical CLRS
// construction; queries cost O(log n + k).

// refInterval is a closed integer range [Lo, Hi] with a payload ID.
type refInterval struct {
	Lo, Hi int
	ID     int
}

// Overlaps reports whether the closed ranges [a.Lo, a.Hi] and [lo, hi]
// intersect.
func (a refInterval) Overlaps(lo, hi int) bool { return a.Lo <= hi && lo <= a.Hi }

// Contains reports whether x lies in [a.Lo, a.Hi].
func (a refInterval) Contains(x int) bool { return a.Lo <= x && x <= a.Hi }

type refNode struct {
	iv          refInterval
	maxHi       int
	height      int
	left, right *refNode
}

// refTree is an augmented AVL interval tree. The zero value is an empty tree
// ready to use.
type refTree struct {
	root *refNode
	size int
}

// Len returns the number of stored intervals.
func (t *refTree) Len() int { return t.size }

// Insert adds the interval [lo, hi] with payload id. Duplicate intervals
// (even with equal ids) are allowed. It panics if lo > hi.
func (t *refTree) Insert(lo, hi, id int) {
	if lo > hi {
		panic(fmt.Sprintf("interval: invalid range [%d,%d]", lo, hi))
	}
	t.root = refInsert(t.root, refInterval{lo, hi, id})
	t.size++
}

func refHeight(n *refNode) int {
	if n == nil {
		return 0
	}
	return n.height
}

func refMaxHi(n *refNode) int {
	if n == nil {
		return -1 << 62
	}
	return n.maxHi
}

func (n *refNode) update() {
	n.height = 1 + max(refHeight(n.left), refHeight(n.right))
	n.maxHi = n.iv.Hi
	if m := refMaxHi(n.left); m > n.maxHi {
		n.maxHi = m
	}
	if m := refMaxHi(n.right); m > n.maxHi {
		n.maxHi = m
	}
}

func refRotateRight(y *refNode) *refNode {
	x := y.left
	y.left = x.right
	x.right = y
	y.update()
	x.update()
	return x
}

func refRotateLeft(x *refNode) *refNode {
	y := x.right
	x.right = y.left
	y.left = x
	x.update()
	y.update()
	return y
}

func refBalance(n *refNode) *refNode {
	n.update()
	switch bf := refHeight(n.left) - refHeight(n.right); {
	case bf > 1:
		if refHeight(n.left.left) < refHeight(n.left.right) {
			n.left = refRotateLeft(n.left)
		}
		return refRotateRight(n)
	case bf < -1:
		if refHeight(n.right.right) < refHeight(n.right.left) {
			n.right = refRotateRight(n.right)
		}
		return refRotateLeft(n)
	}
	return n
}

func refLess(a, b refInterval) bool {
	if a.Lo != b.Lo {
		return a.Lo < b.Lo
	}
	if a.Hi != b.Hi {
		return a.Hi < b.Hi
	}
	return a.ID < b.ID
}

func refInsert(n *refNode, iv refInterval) *refNode {
	if n == nil {
		nn := &refNode{iv: iv}
		nn.update()
		return nn
	}
	if refLess(iv, n.iv) {
		n.left = refInsert(n.left, iv)
	} else {
		n.right = refInsert(n.right, iv)
	}
	return refBalance(n)
}

// Overlap appends to dst the payload IDs of all intervals overlapping the
// closed range [lo, hi] and returns the extended slice. The order of
// results follows the tree's in-order traversal (sorted by Lo, then Hi,
// then ID).
func (t *refTree) Overlap(lo, hi int, dst []int) []int {
	return refOverlap(t.root, lo, hi, dst)
}

func refOverlap(n *refNode, lo, hi int, dst []int) []int {
	if n == nil || n.maxHi < lo {
		return dst
	}
	dst = refOverlap(n.left, lo, hi, dst)
	if n.iv.Overlaps(lo, hi) {
		dst = append(dst, n.iv.ID)
	}
	if n.iv.Lo <= hi {
		dst = refOverlap(n.right, lo, hi, dst)
	}
	return dst
}

// OverlapIntervals is like Overlap but returns the full intervals.
func (t *refTree) OverlapIntervals(lo, hi int, dst []refInterval) []refInterval {
	return refOverlapIv(t.root, lo, hi, dst)
}

func refOverlapIv(n *refNode, lo, hi int, dst []refInterval) []refInterval {
	if n == nil || n.maxHi < lo {
		return dst
	}
	dst = refOverlapIv(n.left, lo, hi, dst)
	if n.iv.Overlaps(lo, hi) {
		dst = append(dst, n.iv)
	}
	if n.iv.Lo <= hi {
		dst = refOverlapIv(n.right, lo, hi, dst)
	}
	return dst
}

// Stab appends the payload IDs of all intervals containing the point x.
func (t *refTree) Stab(x int, dst []int) []int { return t.Overlap(x, x, dst) }

// AnyOverlap reports whether at least one stored interval overlaps [lo, hi].
func (t *refTree) AnyOverlap(lo, hi int) bool {
	for n := t.root; n != nil; {
		if n.iv.Overlaps(lo, hi) {
			return true
		}
		if n.left != nil && n.left.maxHi >= lo {
			n = n.left
		} else {
			n = n.right
		}
	}
	return false
}

// Visit calls f on every stored interval in sorted order. If f returns
// false the traversal stops.
func (t *refTree) Visit(f func(refInterval) bool) {
	var walk func(*refNode) bool
	walk = func(n *refNode) bool {
		if n == nil {
			return true
		}
		return walk(n.left) && f(n.iv) && walk(n.right)
	}
	walk(t.root)
}

// checkTree verifies AVL balance and max-augmentation; used by tests.
func (t *refTree) checkTree() error {
	var walk func(n *refNode) (h, mx int, err error)
	walk = func(n *refNode) (int, int, error) {
		if n == nil {
			return 0, -1 << 62, nil
		}
		lh, lm, err := walk(n.left)
		if err != nil {
			return 0, 0, err
		}
		rh, rm, err := walk(n.right)
		if err != nil {
			return 0, 0, err
		}
		if lh-rh > 1 || rh-lh > 1 {
			return 0, 0, fmt.Errorf("interval: unbalanced node [%d,%d]", n.iv.Lo, n.iv.Hi)
		}
		mx := n.iv.Hi
		if lm > mx {
			mx = lm
		}
		if rm > mx {
			mx = rm
		}
		if mx != n.maxHi {
			return 0, 0, fmt.Errorf("interval: bad maxHi at [%d,%d]: have %d want %d", n.iv.Lo, n.iv.Hi, n.maxHi, mx)
		}
		h := 1 + max(lh, rh)
		if h != n.height {
			return 0, 0, fmt.Errorf("interval: bad height at [%d,%d]", n.iv.Lo, n.iv.Hi)
		}
		return h, mx, nil
	}
	_, _, err := walk(t.root)
	return err
}

func TestRefIntervalEmptyTree(t *testing.T) {
	var tr refTree
	if tr.Len() != 0 {
		t.Fatal("empty tree has nonzero length")
	}
	if got := tr.Overlap(0, 100, nil); len(got) != 0 {
		t.Fatalf("Overlap on empty tree = %v", got)
	}
	if tr.AnyOverlap(0, 100) {
		t.Fatal("AnyOverlap true on empty tree")
	}
}

func TestRefIntervalInsertPanicsOnInvalid(t *testing.T) {
	var tr refTree
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lo > hi")
		}
	}()
	tr.Insert(5, 4, 0)
}

func TestRefIntervalBasicQueries(t *testing.T) {
	var tr refTree
	tr.Insert(1, 3, 10)
	tr.Insert(5, 8, 11)
	tr.Insert(2, 6, 12)
	tr.Insert(9, 9, 13)

	cases := []struct {
		lo, hi int
		want   []int
	}{
		{0, 0, nil},
		{3, 3, []int{10, 12}},
		{4, 4, []int{12}},
		{7, 10, []int{11, 13}},
		{0, 100, []int{10, 12, 11, 13}},
		{9, 9, []int{13}},
	}
	for _, c := range cases {
		got := tr.Overlap(c.lo, c.hi, nil)
		if len(got) != len(c.want) {
			t.Errorf("Overlap(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
			continue
		}
		sort.Ints(got)
		want := append([]int(nil), c.want...)
		sort.Ints(want)
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("Overlap(%d,%d) = %v, want %v", c.lo, c.hi, got, c.want)
				break
			}
		}
		if tr.AnyOverlap(c.lo, c.hi) != (len(c.want) > 0) {
			t.Errorf("AnyOverlap(%d,%d) inconsistent", c.lo, c.hi)
		}
	}
	if got := tr.Stab(2, nil); len(got) != 2 {
		t.Errorf("Stab(2) = %v, want two results", got)
	}
}

func TestRefIntervalVisitOrderAndEarlyStop(t *testing.T) {
	var tr refTree
	for i := 10; i >= 0; i-- {
		tr.Insert(i, i+2, i)
	}
	var seen []int
	tr.Visit(func(iv refInterval) bool {
		seen = append(seen, iv.Lo)
		return true
	})
	if !sort.IntsAreSorted(seen) {
		t.Fatalf("Visit not in order: %v", seen)
	}
	if len(seen) != 11 {
		t.Fatalf("visited %d, want 11", len(seen))
	}
	count := 0
	tr.Visit(func(refInterval) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d, want 3", count)
	}
}

// brute is the reference implementation.
type refBrute []refInterval

func (b refBrute) overlap(lo, hi int) []int {
	var out []int
	for _, iv := range b {
		if iv.Overlaps(lo, hi) {
			out = append(out, iv.ID)
		}
	}
	sort.Ints(out)
	return out
}

func TestRefIntervalRandomizedAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr refTree
		var ref refBrute
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			lo := rng.Intn(100)
			hi := lo + rng.Intn(30)
			tr.Insert(lo, hi, i)
			ref = append(ref, refInterval{lo, hi, i})
		}
		if err := tr.checkTree(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		if tr.Len() != n {
			return false
		}
		for q := 0; q < 50; q++ {
			lo := rng.Intn(120) - 10
			hi := lo + rng.Intn(40)
			got := tr.Overlap(lo, hi, nil)
			sort.Ints(got)
			want := ref.overlap(lo, hi)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			if tr.AnyOverlap(lo, hi) != (len(want) > 0) {
				return false
			}
			ivs := tr.OverlapIntervals(lo, hi, nil)
			if len(ivs) != len(want) {
				return false
			}
			for _, iv := range ivs {
				if !iv.Overlaps(lo, hi) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRefIntervalSortedInsertionStaysBalanced(t *testing.T) {
	var tr refTree
	const n = 4096
	for i := 0; i < n; i++ {
		tr.Insert(i, i, i)
	}
	if err := tr.checkTree(); err != nil {
		t.Fatal(err)
	}
	if h := refHeight(tr.root); h > 14 { // AVL height bound ~1.44 log2(n)
		t.Fatalf("tree height %d too large for %d sorted inserts", h, n)
	}
	got := tr.Overlap(1000, 1002, nil)
	if len(got) != 3 {
		t.Fatalf("Overlap after sorted insert = %v", got)
	}
}

func TestRefIntervalDuplicateIntervals(t *testing.T) {
	var tr refTree
	for i := 0; i < 5; i++ {
		tr.Insert(3, 7, 42)
	}
	if got := tr.Stab(5, nil); len(got) != 5 {
		t.Fatalf("Stab over duplicates = %v, want 5 hits", got)
	}
	if err := tr.checkTree(); err != nil {
		t.Fatal(err)
	}
}
