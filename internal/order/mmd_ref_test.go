package order

// The multiple-minimum-degree ordering as it stood before mmd.go was
// rebuilt on flat arrays (slice-of-slices quotient graph, a map of hash
// buckets, O(n) scans per pass), kept verbatim as the oracle the rewrite
// is held to: MMD must return refMMD's permutation element for element.

import (
	"fmt"
	"sort"

	"repro/internal/sparse"
)

type refState struct {
	n      int
	adjVar [][]int32 // supervariable -> adjacent supervariables (lazy)
	adjEl  [][]int32 // supervariable -> adjacent elements (lazy)
	elVars [][]int32 // element -> member supervariables (lazy)
	state  []nodeState
	weight []int32 // supervariable weight (count of merged originals)
	degree []int32 // external degree (valid unless flagged for update)
	parent []int32 // union-find for absorbed supervariables
	member [][]int32
	mark   []int32
	stamp  int32
	order  []int
}

// refMMD is MMD as it stood before the flat-array rewrite.
func refMMD(m *sparse.Matrix) []int {
	n := m.N
	s := &refState{
		n:      n,
		adjVar: make([][]int32, n),
		adjEl:  make([][]int32, n),
		elVars: make([][]int32, n),
		state:  make([]nodeState, n),
		weight: make([]int32, n),
		degree: make([]int32, n),
		parent: make([]int32, n),
		member: make([][]int32, n),
		mark:   make([]int32, n),
		order:  make([]int, 0, n),
	}
	adj := m.Adjacency()
	for v := 0; v < n; v++ {
		s.weight[v] = 1
		s.parent[v] = int32(v)
		s.member[v] = []int32{int32(v)}
		s.adjVar[v] = make([]int32, len(adj[v]))
		for k, u := range adj[v] {
			s.adjVar[v][k] = int32(u)
		}
		s.degree[v] = int32(len(adj[v]))
	}
	s.run()
	return s.order
}

func (s *refState) find(v int32) int32 {
	for s.parent[v] != v {
		s.parent[v] = s.parent[s.parent[v]]
		v = s.parent[v]
	}
	return v
}

func (s *refState) nextStamp() int32 {
	s.stamp++
	if s.stamp == 1<<30 {
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.stamp = 1
	}
	return s.stamp
}

func (s *refState) run() {
	numbered := 0
	needUpdate := make([]bool, s.n)
	var updateList []int32
	for numbered < s.n {
		// Find the current minimum external degree among active nodes.
		minDeg := int32(1 << 30)
		for v := 0; v < s.n; v++ {
			if s.state[v] == stActive && s.degree[v] < minDeg {
				minDeg = s.degree[v]
			}
		}
		// Multiple elimination: eliminate every active min-degree node whose
		// degree is still current (independence: neighbours of a node
		// eliminated this pass are flagged and skipped).
		updateList = updateList[:0]
		eliminatedAny := false
		for v := int32(0); int(v) < s.n; v++ {
			if s.state[v] != stActive || s.degree[v] != minDeg || needUpdate[v] {
				continue
			}
			eliminatedAny = true
			numbered += s.eliminate(v, needUpdate, &updateList)
		}
		if !eliminatedAny {
			// All min-degree nodes were flagged; recompute and retry.
			for _, u := range updateList {
				if s.state[u] == stActive {
					s.updateDegree(u)
					needUpdate[u] = false
				}
			}
			for v := int32(0); int(v) < s.n; v++ {
				if s.state[v] == stActive && needUpdate[v] {
					s.updateDegree(v)
					needUpdate[v] = false
				}
			}
			continue
		}
		// Degree update pass, with supervariable merging.
		s.mergeIndistinguishable(updateList, needUpdate)
		for _, u := range updateList {
			if s.state[u] == stActive && needUpdate[u] {
				s.updateDegree(u)
				needUpdate[u] = false
			}
		}
	}
	if len(s.order) != s.n {
		panic(fmt.Sprintf("order: produced %d of %d indices", len(s.order), s.n))
	}
}

// eliminate turns pivot p into an element, absorbing its adjacent elements,
// and performs mass elimination. It returns the number of original
// variables numbered.
func (s *refState) eliminate(p int32, needUpdate []bool, updateList *[]int32) int {
	count := 0
	for _, orig := range s.member[p] {
		s.order = append(s.order, int(orig))
		count++
	}
	// Gather the new element's variable set Lp.
	stamp := s.nextStamp()
	s.mark[p] = stamp
	var lp []int32
	for _, w := range s.adjVar[p] {
		w = s.find(w)
		if s.state[w] == stActive && s.mark[w] != stamp {
			s.mark[w] = stamp
			lp = append(lp, w)
		}
	}
	for _, e := range s.adjEl[p] {
		if s.state[e] != stElement {
			continue
		}
		for _, w := range s.elVars[e] {
			w = s.find(w)
			if s.state[w] == stActive && s.mark[w] != stamp {
				s.mark[w] = stamp
				lp = append(lp, w)
			}
		}
		s.state[e] = stDead // element absorption
		s.elVars[e] = nil
	}
	s.state[p] = stElement
	s.adjVar[p] = nil
	s.adjEl[p] = nil
	s.elVars[p] = lp

	// Update each variable in Lp: replace dead elements / covered edges.
	massEliminated := lp[:0:0]
	for _, u := range lp {
		newEl := s.adjEl[u][:0]
		for _, e := range s.adjEl[u] {
			if s.state[e] == stElement {
				newEl = append(newEl, e)
			}
		}
		newEl = append(newEl, p)
		s.adjEl[u] = newEl
		// Drop variable-variable edges covered by the new element (both
		// endpoints in Lp), absorbed variables, and the pivot itself.
		newVar := s.adjVar[u][:0]
		for _, w := range s.adjVar[u] {
			w = s.find(w)
			if s.state[w] != stActive || w == u || s.mark[w] == stamp {
				continue
			}
			newVar = append(newVar, w)
		}
		s.adjVar[u] = newVar
		// Mass elimination: u's adjacency is covered entirely by element p.
		if len(newVar) == 0 && len(newEl) == 1 {
			massEliminated = append(massEliminated, u)
			continue
		}
		if !needUpdate[u] {
			needUpdate[u] = true
			*updateList = append(*updateList, u)
		}
	}
	if len(massEliminated) > 0 {
		// Remove mass-eliminated variables from the element and number them.
		stamp2 := s.nextStamp()
		for _, u := range massEliminated {
			s.mark[u] = stamp2
		}
		kept := s.elVars[p][:0]
		for _, w := range s.elVars[p] {
			if s.mark[w] != stamp2 {
				kept = append(kept, w)
			}
		}
		s.elVars[p] = kept
		for _, u := range massEliminated {
			for _, orig := range s.member[u] {
				s.order = append(s.order, int(orig))
				count++
			}
			s.state[u] = stAbsorbed
			s.adjVar[u] = nil
			s.adjEl[u] = nil
			s.member[u] = nil
		}
	}
	return count
}

// updateDegree recomputes the external degree of supervariable u.
func (s *refState) updateDegree(u int32) {
	stamp := s.nextStamp()
	s.mark[u] = stamp
	var d int32
	newVar := s.adjVar[u][:0]
	for _, w := range s.adjVar[u] {
		w = s.find(w)
		if s.state[w] != stActive || s.mark[w] == stamp {
			continue
		}
		s.mark[w] = stamp
		d += s.weight[w]
		newVar = append(newVar, w)
	}
	s.adjVar[u] = newVar
	newEl := s.adjEl[u][:0]
	for _, e := range s.adjEl[u] {
		if s.state[e] != stElement {
			continue
		}
		newEl = append(newEl, e)
		kept := s.elVars[e][:0]
		for _, w := range s.elVars[e] {
			w = s.find(w)
			if s.state[w] != stActive {
				continue
			}
			kept = append(kept, w)
			if s.mark[w] != stamp && w != u {
				s.mark[w] = stamp
				d += s.weight[w]
			}
		}
		s.elVars[e] = refDedupKeep(kept)
	}
	s.adjEl[u] = newEl
	s.degree[u] = d
}

// refDedupKeep removes duplicates from a small slice in place, preserving
// order (duplicates arise after union-find path compression).
func refDedupKeep(xs []int32) []int32 {
	out := xs[:0]
	for _, x := range xs {
		dup := false
		for _, y := range out {
			if x == y {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, x)
		}
	}
	return out
}

// mergeIndistinguishable merges supervariables with identical quotient-graph
// adjacency among the nodes flagged for degree update.
func (s *refState) mergeIndistinguishable(updateList []int32, needUpdate []bool) {
	if len(updateList) < 2 {
		return
	}
	// Group candidates by a cheap adjacency hash, then verify exactly.
	buckets := make(map[uint64][]int32)
	for _, u := range updateList {
		if s.state[u] != stActive {
			continue
		}
		var h uint64
		for _, w := range s.adjVar[u] {
			w = s.find(w)
			if s.state[w] == stActive && w != u {
				h += uint64(w)*0x9e3779b97f4a7c15 + 1
			}
		}
		for _, e := range s.adjEl[u] {
			if s.state[e] == stElement {
				h ^= (uint64(e) + 0x7f4a7c15) * 0x100000001b3
			}
		}
		buckets[h] = append(buckets[h], u)
	}
	// Process buckets in sorted hash order: merging marks the absorbed
	// variable dead, which changes later indistinguishability checks, so
	// map-iteration order would leak into the ordering (and from there
	// into every downstream schedule and artifact hash).
	hashes := make([]uint64, 0, len(buckets))
	for h := range buckets {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(a, b int) bool { return hashes[a] < hashes[b] })
	for _, h := range hashes {
		group := buckets[h]
		if len(group) < 2 {
			continue
		}
		for i := 0; i < len(group); i++ {
			u := group[i]
			if s.state[u] != stActive {
				continue
			}
			for j := i + 1; j < len(group); j++ {
				w := group[j]
				if s.state[w] != stActive {
					continue
				}
				if s.indistinguishable(u, w) {
					// Merge w into u.
					s.weight[u] += s.weight[w]
					s.member[u] = append(s.member[u], s.member[w]...)
					s.member[w] = nil
					s.state[w] = stAbsorbed
					s.parent[w] = u
					s.adjVar[w] = nil
					s.adjEl[w] = nil
				}
			}
		}
	}
}

// indistinguishable reports whether active supervariables u and w have the
// same adjacency sets (excluding each other). Merging such variables is
// safe: they can be eliminated consecutively with no extra fill.
func (s *refState) indistinguishable(u, w int32) bool {
	return s.sameVarSet(u, w) && s.sameElSet(u, w)
}

func (s *refState) sameVarSet(u, w int32) bool {
	su := s.collectVars(u, w)
	sw := s.collectVars(w, u)
	if len(su) != len(sw) {
		return false
	}
	stamp := s.nextStamp()
	for _, x := range su {
		s.mark[x] = stamp
	}
	for _, x := range sw {
		if s.mark[x] != stamp {
			return false
		}
	}
	return true
}

func (s *refState) collectVars(u, skip int32) []int32 {
	stamp := s.nextStamp()
	var out []int32
	for _, x := range s.adjVar[u] {
		x = s.find(x)
		if s.state[x] != stActive || x == u || x == skip {
			continue
		}
		if s.mark[x] != stamp {
			s.mark[x] = stamp
			out = append(out, x)
		}
	}
	return out
}

func (s *refState) sameElSet(u, w int32) bool {
	su := s.collectEls(u)
	sw := s.collectEls(w)
	if len(su) != len(sw) {
		return false
	}
	stamp := s.nextStamp()
	for _, e := range su {
		s.mark[e] = stamp
	}
	for _, e := range sw {
		if s.mark[e] != stamp {
			return false
		}
	}
	return true
}

func (s *refState) collectEls(u int32) []int32 {
	stamp := s.nextStamp()
	var out []int32
	for _, e := range s.adjEl[u] {
		if s.state[e] == stElement && s.mark[e] != stamp {
			s.mark[e] = stamp
			out = append(out, e)
		}
	}
	return out
}
