// Package traffic simulates the communication behaviour of a scheduled
// sparse Cholesky factorization on a distributed-memory machine, using the
// paper's data-traffic model (Section 4):
//
//	"The data traffic is defined as a count of all the non-local data
//	accesses. Accessing a single non-local element constitutes a unit
//	data traffic irrespective of the location from where it is fetched.
//	Once a data element is fetched, that element is stored locally and
//	subsequent usage of that element in the local computations does not
//	add to the data traffic."
//
// The processor owning a target element performs its updates
// (owner-computes), so it must access the two source elements of every
// pair update (Figure 1) and the diagonal element of the final scaling.
// Each distinct (processor, element) non-local pair costs one unit.
//
// Beyond the paper's totals, the simulator records the full
// processor-to-processor traffic matrix, which quantifies the paper's
// closing claim that wrap mappings "lead to processors communicating with
// a large number of other processors" while block schemes confine traffic
// to small groups.
package traffic

import (
	"math/bits"
	"slices"

	"repro/internal/sched"
)

// Result aggregates the traffic simulation.
type Result struct {
	P int
	// Total is the system-wide data traffic: the number of distinct
	// (processor, non-local element) accesses.
	Total int64
	// PerProc[p] is the traffic charged to processor p (its fetches).
	PerProc []int64
	// Pair[o][a] counts distinct elements owned by o and fetched by a.
	Pair [][]int64
}

// Mean returns the mean traffic per processor.
func (r *Result) Mean() float64 { return float64(r.Total) / float64(r.P) }

// MaxPerProc returns the largest per-processor traffic.
func (r *Result) MaxPerProc() int64 { return slices.Max(r.PerProc) }

// Partners returns, for each processor, the number of distinct processors
// it exchanges data with (in either direction).
func (r *Result) Partners() []int {
	out := make([]int, r.P)
	for a := 0; a < r.P; a++ {
		for b := 0; b < r.P; b++ {
			if a != b && (r.Pair[a][b] > 0 || r.Pair[b][a] > 0) {
				out[a]++
			}
		}
	}
	return out
}

// MeanPartners returns the average number of communication partners.
func (r *Result) MeanPartners() float64 {
	ps := r.Partners()
	sum := 0
	for _, p := range ps {
		sum += p
	}
	return float64(sum) / float64(r.P)
}

// Simulate runs the traffic model for a schedule over the factor it
// assigns, s.F.
//
// It always takes the element-level walk (O(#updates)), whatever the
// schedule's shape: it is the oracle the passes of FetchStats and the
// reader counts of Incremental are held to.
func Simulate(s *sched.Schedule) *Result {
	owner := elemOwners(s)
	fetched := firstFetches(s, owner)
	r := &Result{
		P:       s.P,
		PerProc: make([]int64, s.P),
		Pair:    make([][]int64, s.P),
	}
	for i := range r.Pair {
		r.Pair[i] = make([]int64, s.P)
	}
	fetched.each(func(elem, proc int32) {
		r.Total++
		r.PerProc[proc]++
		r.Pair[owner[elem]][proc]++
	})
	return r
}

// HopWeightedTraffic weighs the processor-pair traffic matrix by hypercube
// hop distance: processors are identified with the vertices of a
// log2(P)-dimensional hypercube (the message-passing topology of the
// paper's era — its reference [8] factors on a hypercube), and each
// fetched element costs one unit per hop between owner and reader. For
// non-power-of-two P the Hamming distance of the processor indices is
// still a valid embedding metric. Lower hop-weighted totals mean the
// mapping's communication is topologically local.
func (r *Result) HopWeightedTraffic() int64 {
	var total int64
	for o := 0; o < r.P; o++ {
		for a := 0; a < r.P; a++ {
			if v := r.Pair[o][a]; v > 0 {
				total += v * int64(bits.OnesCount(uint(o^a)))
			}
		}
	}
	return total
}
