// Package sched assigns the partitioned work of a sparse Cholesky
// factorization to processors.
//
// Two schemes are implemented, matching the paper's comparison:
//
//   - BlockMap: the allocation heuristic of Section 3.4 over the unit
//     blocks of core.Partition. Independent columns are wrap-mapped first;
//     dependent single columns go to a predecessor's processor; triangle
//     units prefer an unused predecessor processor (the set Pa) falling
//     back to a global round-robin marker over Pg; the units of each
//     rectangle below a triangle cycle through the triangle's processor
//     set Pt ordered by increasing assigned work, re-sorted after every
//     rectangle. BlockMapGreedy is the same allocator with its pick rule
//     switched from "first / next in turn" to "least loaded": one scan
//     (blockMap), two names.
//
//   - WrapMap: the classical wrap (cyclic) column mapping — column j of
//     the permuted matrix belongs to processor j mod P — one case of
//     ColumnMap, the constructor of every column-granular schedule.
//
// A Schedule is its owner vector, one owner per unit block (UnitProc) or
// per column (ColProc), the structure that vector assigns (F, and Part for
// unit blocks) and the per-processor work derived from them: O(n + P) or
// O(units + P) words. The owner of a factor element, the granularity at
// which the traffic simulator counts non-local accesses, is derived where
// it is read, column by column (AppendOwners).
package sched

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/symbolic"
)

// Schedule is a complete assignment of factorization work to P
// processors. Its owner vector — UnitProc for a block-granular schedule,
// ColProc for a column-granular one, exactly one set by this package's
// constructors — is the assignment; Work is derived from it, and so is
// the owner of every element of F (AppendOwners). A schedule with neither
// (part2d's bridge of a tiling that splits a column) is evaluated through
// ElemProc alone.
type Schedule struct {
	P int
	// F is the factor the schedule assigns: the partition's (padded when
	// relaxed) for a block-granular schedule, the analysis factor otherwise.
	F *symbolic.Factor
	// Part is the partition UnitProc indexes, set exactly when UnitProc is.
	Part *core.Partition
	// ElemProc maps every factor nonzero position to its owning processor
	// for a schedule with no owner vector (part2d's element-granular
	// bridge); nil for the schedules of this package.
	ElemProc []int32
	// UnitProc maps unit IDs to processors (block-granular schedules; nil
	// for column-granular ones).
	UnitProc []int32
	// ColProc maps column j to its processor (column-granular schedules;
	// nil for block-granular ones).
	ColProc []int32
	// Work is the total computational work assigned to each processor
	// under the paper's work model.
	Work []int64
}

// totalWork returns the summed work of all processors.
func (s *Schedule) totalWork() int64 { return model.TotalWork(s.Work) }

// MaxWork returns the largest per-processor work.
func (s *Schedule) MaxWork() int64 {
	var m int64
	for _, w := range s.Work {
		if w > m {
			m = w
		}
	}
	return m
}

// Imbalance returns the paper's load imbalance factor
// A = (Wmax - Wavg) * N / Wtot = Wmax*N/Wtot - 1, which is 0 for a
// perfectly balanced assignment.
func (s *Schedule) Imbalance() float64 { return ImbalanceOf(s.Work) }

// Efficiency returns 1/(1+A), the paper's e = Wavg/Wmax: parallel
// efficiency in the absence of dependency delays.
func (s *Schedule) Efficiency() float64 {
	mw := s.MaxWork()
	if mw == 0 {
		return 1
	}
	avg := float64(s.totalWork()) / float64(s.P)
	return avg / float64(mw)
}

// WrapMap assigns column j of the factor to processor j mod P.
func WrapMap(f *symbolic.Factor, elemWork []uint32, p int) *Schedule {
	MustProcs("sched", p)
	owner := make([]int32, f.N)
	for j := range owner {
		owner[j] = int32(j % p)
	}
	return ColumnMap(f, elemWork, p, owner)
}

// ColumnMap is the one constructor of column-granular schedules: column j
// of the factor goes to processor owner[j], every owner in [0, p). The
// schedule keeps owner as its ColProc and derives per-processor work.
func ColumnMap(f *symbolic.Factor, elemWork []uint32, p int, owner []int32) *Schedule {
	MustProcs("sched", p)
	if len(owner) != f.N {
		panic(fmt.Sprintf("sched: %d column owners for %d columns", len(owner), f.N))
	}
	s := &Schedule{P: p, F: f, ColProc: owner, Work: make([]int64, p)}
	for j, proc := range owner {
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			s.Work[proc] += int64(elemWork[q])
		}
	}
	return s
}

// BlockMap runs the Section 3.4 allocator on a partition.
func BlockMap(part *core.Partition, p int) *Schedule { return blockMap(part, p, false) }

// BlockMapGreedy is the "more sophisticated" allocator the paper's
// Section 5 anticipates ("the load balance can be improved by using more
// sophisticated strategies to allocate blocks to processors"): the same
// scan with every pick work-aware. The ablation in EXPERIMENTS.md
// quantifies how much imbalance this removes and what it costs in
// communication.
func BlockMapGreedy(part *core.Partition, p int) *Schedule { return blockMap(part, p, true) }

// LeastLoaded returns the index of the smallest entry of load, ties to
// the lowest index.
func LeastLoaded(load []int64) int {
	best := 0
	for i := 1; i < len(load); i++ {
		if load[i] < load[best] {
			best = i
		}
	}
	return best
}

// blockMap is the one Section 3.4 scan. Locality comes first under both
// pick policies; greedy selects how a choice among equally local
// processors is made:
//
//   - a unit with no usable predecessor processor takes the next
//     processor of a round-robin counter (the wrap of step 1, the Pg
//     marker of step 2), or the least-loaded processor;
//   - a unit with usable predecessor processors takes the first of them
//     (the paper's "arbitrarily picked"), or the least loaded of them.
//
// Rectangles cycle through Pt by increasing work under both.
func blockMap(part *core.Partition, p int, greedy bool) *Schedule {
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
	next := 0
	free := func() int32 {
		if greedy {
			return int32(LeastLoaded(work))
		}
		proc := int32(next % p)
		next++
		return proc
	}
	// inPa marks Pa, the processors already used inside the triangle
	// being allocated; it is all false between triangles.
	inPa := make([]bool, p)
	var paList []int32
	// local picks among the processors of u's already placed predecessors
	// that are outside Pa, or takes a free processor when there is none
	// (for a single column only possible when the engine saw a dependency
	// whose source is later in scan order, which construction prevents).
	local := func(u int) int32 {
		proc := int32(-1)
		for _, pr := range units[u].Preds {
			pp := unitProc[pr]
			if pp < 0 || inPa[pp] {
				continue
			}
			if !greedy {
				return pp
			}
			if proc < 0 || work[pp] < work[proc] {
				proc = pp
			}
		}
		if proc < 0 {
			proc = free()
		}
		return proc
	}

	// Step 1: independent columns are allocated in wrap-around fashion.
	for ci := range part.Clusters {
		cl := &part.Clusters[ci]
		if cl.Single && len(units[cl.ColUnit].Preds) == 0 {
			assign(cl.ColUnit, free())
		}
	}

	// Step 2: scan the remaining clusters left to right; the round-robin
	// marker over Pg starts at processor 0.
	next = 0
	for ci := range part.Clusters {
		cl := &part.Clusters[ci]
		if cl.Single {
			// "The entire column is allocated to a processor, which is
			// arbitrarily picked from the set of processors which worked
			// on the column's predecessors."
			if u := cl.ColUnit; unitProc[u] < 0 { // else independent, already placed
				assign(u, local(u))
			}
			continue
		}

		// Triangle partition units, in allocation order: a predecessor's
		// processor not yet in Pa, else a free one.
		paList = paList[:0]
		for _, u := range cl.TriAlloc {
			proc := local(u)
			assign(u, proc)
			if !inPa[proc] {
				inPa[proc] = true
				paList = append(paList, proc)
			}
		}

		// Rectangles below the triangle: restrict to Pt, the processors of
		// the triangle units, cycling in order of increasing work and
		// re-sorting after each rectangle.
		for _, pr := range paList {
			inPa[pr] = false
		}
		pt := paList
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

	return &Schedule{P: p, F: part.F, Part: part, UnitProc: unitProc, Work: work}
}

// AppendOwners appends to dst the owner of every position of column j of
// F, in position order, and returns the extended slice: the column's
// ColProc entry, or the UnitProc entry of each position's unit, or the
// column's run of ElemProc for a schedule with no owner vector. It is the
// one derivation of element ownership; a caller that reads the column
// into a reused buffer allocates nothing.
func (s *Schedule) AppendOwners(dst []int32, j int) []int32 {
	lo, hi := s.F.ColPtr[j], s.F.ColPtr[j+1]
	switch {
	case s.ColProc != nil:
		for o := s.ColProc[j]; lo < hi; lo++ {
			dst = append(dst, o)
		}
	case s.UnitProc != nil:
		for _, u := range s.Part.ElemUnit[lo:hi] {
			dst = append(dst, s.UnitProc[u])
		}
	default:
		dst = append(dst, s.ElemProc[lo:hi]...)
	}
	return dst
}

// ImbalanceOf computes the paper's load imbalance factor A for an
// arbitrary per-processor work vector.
func ImbalanceOf(work []int64) float64 {
	var tot, max int64
	for _, w := range work {
		tot += w
		if w > max {
			max = w
		}
	}
	if tot == 0 {
		return 0
	}
	return float64(max)*float64(len(work))/float64(tot) - 1
}
