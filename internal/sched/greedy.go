package sched

import (
	"sort"

	"repro/internal/core"
)

// BlockMapGreedy is the "more sophisticated" allocator the paper's
// Section 5 anticipates ("the load balance can be improved by using more
// sophisticated strategies to allocate blocks to processors"). It keeps
// the structure of the Section 3.4 heuristic — locality first — but every
// fallback decision is work-aware instead of round-robin:
//
//   - independent columns go to the least-loaded processor;
//   - dependent columns pick the least-loaded among their predecessors'
//     processors (instead of an arbitrary one);
//   - triangle units preferring a fresh predecessor processor pick the
//     least-loaded such processor; the global fallback is the least-loaded
//     processor overall;
//   - rectangles cycle through Pt by increasing work as before.
//
// The ablation in EXPERIMENTS.md quantifies how much imbalance this
// removes and what it costs in communication.
func BlockMapGreedy(part *core.Partition, p int) *Schedule {
	MustProcs("sched", p)
	units := part.Units
	unitProc := make([]int32, len(units))
	for i := range unitProc {
		unitProc[i] = -1
	}
	work := make([]int64, p)
	assign := func(u int, proc int32) {
		unitProc[u] = proc
		work[proc] += units[u].Work
	}
	leastLoaded := func() int32 {
		best := int32(0)
		for q := 1; q < p; q++ {
			if work[q] < work[best] {
				best = int32(q)
			}
		}
		return best
	}

	// Independent columns: least-loaded processor (work-aware wrap).
	for ci := range part.Clusters {
		cl := &part.Clusters[ci]
		if cl.Single && len(units[cl.ColUnit].Preds) == 0 {
			assign(cl.ColUnit, leastLoaded())
		}
	}

	inPa := make([]bool, p)
	var paList []int32
	for ci := range part.Clusters {
		cl := &part.Clusters[ci]
		if cl.Single {
			u := cl.ColUnit
			if unitProc[u] >= 0 {
				continue
			}
			proc := int32(-1)
			for _, pr := range units[u].Preds {
				pp := unitProc[pr]
				if pp >= 0 && (proc < 0 || work[pp] < work[proc]) {
					proc = pp
				}
			}
			if proc < 0 {
				proc = leastLoaded()
			}
			assign(u, proc)
			continue
		}
		for _, pr := range paList {
			inPa[pr] = false
		}
		paList = paList[:0]
		for _, u := range cl.TriAlloc {
			proc := int32(-1)
			for _, pr := range units[u].Preds {
				pp := unitProc[pr]
				if pp >= 0 && !inPa[pp] && (proc < 0 || work[pp] < work[proc]) {
					proc = pp
				}
			}
			if proc < 0 {
				proc = leastLoaded()
			}
			assign(u, proc)
			if !inPa[proc] {
				inPa[proc] = true
				paList = append(paList, proc)
			}
		}
		pt := append([]int32(nil), paList...)
		for ri := range cl.Rects {
			r := &cl.Rects[ri]
			sort.Slice(pt, func(a, b int) bool {
				if work[pt[a]] != work[pt[b]] {
					return work[pt[a]] < work[pt[b]]
				}
				return pt[a] < pt[b]
			})
			rr := 0
			for _, row := range r.Units {
				for _, u := range row {
					assign(u, pt[rr%len(pt)])
					rr++
				}
			}
		}
	}

	s := &Schedule{
		P:        p,
		ElemProc: make([]int32, part.F.NNZ()),
		UnitProc: unitProc,
		Work:     work,
	}
	for q := range s.ElemProc {
		s.ElemProc[q] = unitProc[part.ElemUnit[q]]
	}
	return s
}
