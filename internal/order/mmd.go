// Package order implements fill-reducing orderings for symmetric sparse
// matrices.
//
// The paper orders every test matrix with "Liu's modified multiple minimum
// degree ordering scheme" [Liu, TOMS 1985]. MMD here is implemented on the
// quotient graph with the classical ingredients of that scheme:
//
//   - multiple elimination: all independent minimum-degree supervariables
//     are eliminated in one pass before any degrees are recomputed;
//   - element absorption: eliminating a pivot absorbs the elements it is
//     adjacent to, keeping the quotient graph no larger than the original;
//   - supervariables (indistinguishable-node merging): variables with
//     identical quotient-graph adjacency are merged and numbered together;
//   - mass elimination: variables whose adjacency is covered entirely by
//     the new pivot element are numbered immediately after the pivot;
//   - external degree: the degree of a supervariable counts the total
//     weight of its distinct neighbours, excluding itself.
//
// Tie-breaking differs from the GENMMD Fortran code, so fill counts differ
// from the paper's by a few percent; EXPERIMENTS.md (Ext-F, the ordering
// ablation) measures what the ordering is worth.
package order

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/sparse"
)

type nodeState byte

const (
	stActive   nodeState = iota // an active supervariable
	stAbsorbed                  // merged into another supervariable, or mass-eliminated
	stElement                   // eliminated; now an element (pivot clique)
	stDead                      // an element absorbed by a newer element
)

// stampLimit is where a stamp counter wraps and its marks are cleared.
const stampLimit = 1 << 30

// stamps is a set over node ids that empties in O(1): id x is a member
// while mark[x] equals the stamp next last returned.
type stamps struct {
	mark []int32
	cur  int32
}

func (t *stamps) next() int32 {
	t.cur++
	if t.cur >= stampLimit {
		clear(t.mark)
		t.cur = 1
	}
	return t.cur
}

// mmd is the quotient graph on flat arrays. A node is a variable until it
// is eliminated and an element from then on.
type mmd struct {
	n     int
	state []nodeState
	flag  []bool // variable: its degree is stale and it sits in update

	// Variable v keeps adj[ptr[v]:ptr[v+1]], its slice of the input
	// adjacency, for good: nv[v] adjacent variables (lazy: entries may
	// name absorbed variables, and two may resolve to one after a merge)
	// followed by ne[v] adjacent elements (lazy: some may be dead). Every
	// element a variable gains replaces a pivot or an absorbed element it
	// loses, so the two lists never outgrow the slice.
	ptr, nv, ne []int32
	adj         []int32
	// Element e's variables are lp[lpStart[e]:lpStart[e]+nv[e]] (lazy like
	// the variable lists); lp only grows.
	lpStart []int32
	lp      []int32

	weight []int32 // supervariable weight (count of merged originals)
	degree []int32 // external degree (valid unless flagged)
	parent []int32 // union-find for merged supervariables
	// The originals of supervariable v are v, memNext[v], ... up to
	// memTail[v]; -1 ends the list.
	memNext, memTail []int32
	// Degree buckets: head[d] starts the doubly-linked list of the
	// unflagged active variables of degree d; no bucket below minDeg is
	// occupied.
	head, next, prev []int32
	minDeg           int32

	seen, seen2 stamps

	update []int32    // variables flagged this pass, in flagging order
	cand   []int32    // this pass's minimum-degree bucket, increasing
	keys   []mergeKey // merge candidates of this pass
	slots  []int32    // how many of their hashes fall in each slot
	order  []int
}

// mergeKey places one update-list entry in the supervariable merge: equal
// hashes are compared pairwise in update-list order.
type mergeKey struct {
	hash uint64
	pos  int32
}

// MMD computes a multiple-minimum-degree ordering of the symmetric matrix m.
// The returned order satisfies order[k] = original index eliminated k-th,
// i.e. it is directly usable with sparse.Matrix.Permute.
func MMD(m *sparse.Matrix) []int {
	s := newMMD(m, 0)
	for len(s.order) < s.n {
		s.pass()
	}
	return s.order
}

// newMMD builds the quotient graph of m. Both stamp counters start at
// stamp, which only tests set above zero.
func newMMD(m *sparse.Matrix, stamp int32) *mmd {
	n := m.N
	nadj := 2 * m.OffDiagNNZ()
	slab := make([]int32, 20*n+1+nadj)
	take := func(k int) []int32 {
		part := slab[:k:k]
		slab = slab[k:]
		return part
	}
	s := &mmd{
		n:       n,
		state:   make([]nodeState, n),
		flag:    make([]bool, n),
		ptr:     take(n + 1),
		nv:      take(n),
		ne:      take(n),
		adj:     take(nadj),
		lpStart: take(n),
		lp:      make([]int32, 0, nadj),
		weight:  take(n),
		degree:  take(n),
		parent:  take(n),
		memNext: take(n),
		memTail: take(n),
		head:    take(n),
		next:    take(n),
		prev:    take(n),
		seen:    stamps{mark: take(n), cur: stamp},
		seen2:   stamps{mark: take(n), cur: stamp},
		update:  take(n)[:0],
		cand:    take(n)[:0],
		slots:   take(4 * n),
		order:   make([]int, 0, n),
	}
	// Column j contributes j to the list of every row below it and those
	// rows to its own list, after every smaller column has: each list
	// comes out increasing.
	for j := 0; j < n; j++ {
		for _, i := range m.Col(j)[1:] {
			s.degree[i]++
			s.degree[j]++
		}
	}
	for v := 0; v < n; v++ {
		s.ptr[v+1] = s.ptr[v] + s.degree[v]
	}
	for j := 0; j < n; j++ {
		for _, i := range m.Col(j)[1:] {
			s.adj[s.ptr[i]+s.nv[i]] = int32(j)
			s.nv[i]++
			s.adj[s.ptr[j]+s.nv[j]] = int32(i)
			s.nv[j]++
		}
	}
	for d := range s.head {
		s.head[d] = -1
	}
	for v := int32(0); int(v) < n; v++ {
		s.weight[v] = 1
		s.parent[v] = v
		s.memNext[v] = -1
		s.memTail[v] = v
		s.list(v)
	}
	return s
}

func (s *mmd) find(v int32) int32 {
	for s.parent[v] != v {
		s.parent[v] = s.parent[s.parent[v]]
		v = s.parent[v]
	}
	return v
}

// list puts v into the bucket of its degree, unlist takes it out.
func (s *mmd) list(v int32) {
	d := s.degree[v]
	h := s.head[d]
	s.next[v], s.prev[v] = h, -1
	if h != -1 {
		s.prev[h] = v
	}
	s.head[d] = v
	if d < s.minDeg {
		s.minDeg = d
	}
}

func (s *mmd) unlist(v int32) {
	nx, pv := s.next[v], s.prev[v]
	if pv != -1 {
		s.next[pv] = nx
	} else {
		s.head[s.degree[v]] = nx
	}
	if nx != -1 {
		s.prev[nx] = pv
	}
}

// number appends the originals of supervariable v to the ordering.
func (s *mmd) number(v int32) {
	for o := v; o != -1; o = s.memNext[o] {
		s.order = append(s.order, int(o))
	}
}

// pass is one round of multiple elimination: every minimum-degree
// variable whose degree is still current is eliminated, in increasing
// index (neighbours of a variable eliminated this pass are flagged and
// skipped, which keeps the pivots independent), then the flagged
// variables are merged where indistinguishable and their degrees
// recomputed. No active variable is flagged when a pass starts, so the
// first variable of the minimum bucket is always eliminated.
func (s *mmd) pass() {
	for s.head[s.minDeg] == -1 {
		s.minDeg++
	}
	s.cand = s.cand[:0]
	for v := s.head[s.minDeg]; v != -1; v = s.next[v] {
		s.cand = append(s.cand, v)
	}
	slices.Sort(s.cand)
	s.update = s.update[:0]
	for _, v := range s.cand {
		if s.state[v] == stActive && !s.flag[v] {
			s.eliminate(v)
		}
	}
	s.mergeIndistinguishable()
	// Nothing is eliminated or merged while degrees are recomputed, so an
	// element list compacted once stays compact for the whole phase.
	phase := s.seen2.next()
	for _, u := range s.update {
		if s.state[u] == stActive {
			s.updateDegree(u, phase)
			s.flag[u] = false
			s.list(u)
		}
	}
}

// eliminate turns pivot p into an element, absorbing its adjacent
// elements, and performs mass elimination.
func (s *mmd) eliminate(p int32) {
	s.unlist(p)
	s.number(p)
	// Gather the new element's variable set Lp at the end of lp. The
	// loops index lp afresh on every step: gather may move it.
	stamp := s.seen.next()
	mark := s.seen.mark
	mark[p] = stamp
	start := int32(len(s.lp))
	gather := func(w int32) {
		w = s.find(w)
		if s.state[w] == stActive && mark[w] != stamp {
			mark[w] = stamp
			s.lp = append(s.lp, w)
		}
	}
	ap := s.adj[s.ptr[p]:s.ptr[p+1]]
	for _, w := range ap[:s.nv[p]] {
		gather(w)
	}
	for _, e := range ap[s.nv[p] : s.nv[p]+s.ne[p]] {
		if s.state[e] != stElement {
			continue
		}
		for i, end := s.lpStart[e], s.lpStart[e]+s.nv[e]; i < end; i++ {
			gather(s.lp[i])
		}
		s.state[e] = stDead // element absorption
	}
	s.state[p] = stElement

	// Update each variable in Lp: replace dead elements / covered edges.
	keep := start
	for _, u := range s.lp[start:] {
		a := s.adj[s.ptr[u]:s.ptr[u+1]]
		// Drop variable-variable edges covered by the new element (both
		// endpoints in Lp), absorbed variables, and the pivot itself.
		nv := int32(0)
		for _, w := range a[:s.nv[u]] {
			w = s.find(w)
			if s.state[w] == stActive && w != u && mark[w] != stamp {
				a[nv] = w
				nv++
			}
		}
		end := nv
		for _, e := range a[s.nv[u] : s.nv[u]+s.ne[u]] {
			if s.state[e] == stElement {
				a[end] = e
				end++
			}
		}
		if int(end) == len(a) {
			panic("order: a variable's lists outgrew its adjacency")
		}
		a[end] = p
		s.nv[u], s.ne[u] = nv, end+1-nv
		listed := !s.flag[u]
		if listed {
			s.unlist(u)
		}
		// Mass elimination: u's adjacency is covered entirely by element p.
		if end == 0 {
			s.number(u)
			s.state[u] = stAbsorbed
			continue
		}
		s.lp[keep] = u
		keep++
		if listed {
			s.flag[u] = true
			s.update = append(s.update, u)
		}
	}
	s.lp = s.lp[:keep]
	s.lpStart[p], s.nv[p] = start, keep-start
}

// updateDegree recomputes the external degree of supervariable u,
// compacting its lists and those of the elements it meets for the first
// time in this phase.
func (s *mmd) updateDegree(u, phase int32) {
	stamp := s.seen.next()
	mark := s.seen.mark
	mark[u] = stamp
	a := s.adj[s.ptr[u]:s.ptr[u+1]]
	var d, nv int32
	for _, w := range a[:s.nv[u]] {
		w = s.find(w)
		if s.state[w] == stActive && mark[w] != stamp {
			mark[w] = stamp
			d += s.weight[w]
			a[nv] = w
			nv++
		}
	}
	end := nv
	for _, e := range a[s.nv[u] : s.nv[u]+s.ne[u]] {
		if s.state[e] != stElement {
			continue
		}
		a[end] = e
		end++
		if s.seen2.mark[e] != phase {
			s.compact(e)
			s.seen2.mark[e] = phase
		}
		for _, w := range s.lp[s.lpStart[e]:][:s.nv[e]] {
			if mark[w] != stamp {
				mark[w] = stamp
				d += s.weight[w]
			}
		}
	}
	s.nv[u], s.ne[u] = nv, end-nv
	s.degree[u] = d
}

// compact rewrites element e's list as the distinct active variables it
// resolves to, in order of first appearance (two entries resolve to one
// after a merge).
func (s *mmd) compact(e int32) {
	stamp := s.seen2.next()
	mark := s.seen2.mark
	l := s.lp[s.lpStart[e]:][:s.nv[e]]
	k := int32(0)
	for _, w := range l {
		w = s.find(w)
		if s.state[w] == stActive && mark[w] != stamp {
			mark[w] = stamp
			l[k] = w
			k++
		}
	}
	s.nv[e] = k
}

// mergeIndistinguishable merges supervariables with identical quotient-graph
// adjacency among the nodes flagged for degree update.
func (s *mmd) mergeIndistinguishable() {
	if len(s.update) < 2 {
		return
	}
	// Group candidates by a cheap adjacency hash, then verify exactly.
	// Every hash is taken before the first merge. Most are alone in their
	// slot of a small count table, hence alone in their group: only the
	// rest are sorted.
	mask := uint64(1)<<bits.Len(uint(2*len(s.update))) - 1
	slots := s.slots[:mask+1]
	clear(slots)
	s.keys = s.keys[:0]
	for pos, u := range s.update {
		if s.state[u] != stActive {
			continue
		}
		a := s.adj[s.ptr[u]:s.ptr[u+1]]
		var h uint64
		for _, w := range a[:s.nv[u]] {
			w = s.find(w)
			if s.state[w] == stActive && w != u {
				h += uint64(w)*0x9e3779b97f4a7c15 + 1
			}
		}
		for _, e := range a[s.nv[u] : s.nv[u]+s.ne[u]] {
			if s.state[e] == stElement {
				h ^= (uint64(e) + 0x7f4a7c15) * 0x100000001b3
			}
		}
		s.keys = append(s.keys, mergeKey{h, int32(pos)})
		slots[(h>>32^h)&mask]++
	}
	s.keys = slices.DeleteFunc(s.keys, func(k mergeKey) bool { return slots[(k.hash>>32^k.hash)&mask] < 2 })
	// Merging marks the absorbed variable dead, which changes later
	// checks, so the order of comparison is part of the ordering: groups
	// in increasing hash, pairs within a group in update-list order.
	slices.SortFunc(s.keys, func(a, b mergeKey) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	for i, ki := range s.keys {
		u := s.update[ki.pos]
		if s.state[u] != stActive {
			continue
		}
		for _, kj := range s.keys[i+1:] {
			if kj.hash != ki.hash {
				break
			}
			w := s.update[kj.pos]
			if s.state[w] == stActive && s.indistinguishable(u, w) {
				// Merge w into u.
				s.weight[u] += s.weight[w]
				s.memNext[s.memTail[u]] = w
				s.memTail[u] = s.memTail[w]
				s.state[w] = stAbsorbed
				s.parent[w] = u
			}
		}
	}
}

// indistinguishable reports whether active supervariables u and w have the
// same adjacency sets (excluding each other). Merging such variables is
// safe: they can be eliminated consecutively with no extra fill.
// Variables and elements are disjoint ids, so one pair of stamps serves
// both kinds of list: seen holds u's side, seen2 what w has matched of it.
func (s *mmd) indistinguishable(u, w int32) bool {
	in, hit := s.seen.next(), s.seen2.next()
	ofU, ofW := s.seen.mark, s.seen2.mark
	unmatched := 0
	a := s.adj[s.ptr[u]:s.ptr[u+1]]
	for _, x := range a[:s.nv[u]] {
		x = s.find(x)
		if s.state[x] == stActive && x != u && x != w && ofU[x] != in {
			ofU[x] = in
			unmatched++
		}
	}
	for _, e := range a[s.nv[u] : s.nv[u]+s.ne[u]] {
		if s.state[e] == stElement && ofU[e] != in {
			ofU[e] = in
			unmatched++
		}
	}
	a = s.adj[s.ptr[w]:s.ptr[w+1]]
	for _, x := range a[:s.nv[w]] {
		x = s.find(x)
		if s.state[x] != stActive || x == u || x == w {
			continue
		}
		if ofU[x] != in {
			return false
		}
		if ofW[x] != hit {
			ofW[x] = hit
			unmatched--
		}
	}
	for _, e := range a[s.nv[w] : s.nv[w]+s.ne[w]] {
		if s.state[e] != stElement {
			continue
		}
		if ofU[e] != in {
			return false
		}
		if ofW[e] != hit {
			ofW[e] = hit
			unmatched--
		}
	}
	return unmatched == 0
}
