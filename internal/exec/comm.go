package exec

import (
	"fmt"
	"math"
)

// CommModel is the linear communication-time model of the makespan
// simulators: fetching one non-local element costs Alpha work units
// (the bandwidth term, the paper's per-element data traffic) and every
// consolidated message costs Beta work units (the latency term, the
// paper's step-5 consolidation unit). Both are measured in the same units
// as Task.Work (one unit per multiply-add pair).
//
// The paper keeps data traffic (Section 4.1) and load balance (Section
// 4.2) as separate metrics and argues informally that "the savings in
// communication will more than offset the disadvantage of load imbalance"
// on machines where communication is expensive. CommModel makes that
// argument executable: each task's duration becomes its compute work plus
// the time to fetch its non-local operands, so the same list simulations
// that measure dependency delays produce a single unified time estimate in
// which traffic, latency, balance and dependency structure all interact.
// The zero value charges nothing, reproducing the compute-only simulators
// bit for bit.
//
// Gamma is the per-task fixed overhead the real engine measures and the
// paper's model lacks: every task pays Gamma work units regardless of its
// volume or message count (synchronization, wakeup and dispatch cost, the
// term that dominates sub-microsecond tasks at LAP30 scale). It is fitted
// from measured TaskEvent durations by internal/calib; a zero Gamma
// charges exactly nothing, keeping every simulator bit-identical to the
// two-parameter model.
type CommModel struct {
	Alpha float64 // work units per fetched non-local element
	Beta  float64 // work units per received message
	Gamma float64 // work units of fixed overhead per task
}

// Valid reports the first term that is NaN, infinite or negative as an
// error naming it. Such a term corrupts every priced duration: a NaN or
// infinite cost truncates to -2⁶³ on amd64, a negative one shortens a
// task below its work.
func (c CommModel) Valid() error {
	for _, t := range [...]struct {
		name string
		v    float64
	}{{"Alpha", c.Alpha}, {"Beta", c.Beta}, {"Gamma", c.Gamma}} {
		if !(t.v >= 0) || math.IsInf(t.v, 1) {
			return fmt.Errorf("invalid CommModel: %s = %g, every term must be finite and non-negative", t.name, t.v)
		}
	}
	return nil
}

// Cost returns the non-compute time of a task that fetches vol elements
// in msgs messages: the comm terms plus the per-task fixed overhead. The
// value is truncated to integer work units (the convention of the Ext-L
// study), so a zero model adds exactly nothing and costs are monotone in
// Alpha, Beta, Gamma, vol and msgs.
func (c CommModel) Cost(vol, msgs int64) int64 {
	return int64(c.Alpha*float64(vol)) + int64(c.Beta*float64(msgs)) + int64(c.Gamma)
}

// commCosts returns the comm cost of each of n tasks' fetch volume and
// message count and their total; the simulators add task i's cost to its
// Work as they read it, and a probe splits each event's duration into the
// two. vol and msgs may be nil (that term is not charged); Simulate has
// checked their lengths.
func commCosts(n int, cm CommModel, vol, msgs []int64) ([]int64, int64) {
	per := make([]int64, n)
	var comm int64
	for i := range per {
		var v, m int64
		if vol != nil {
			v = vol[i]
		}
		if msgs != nil {
			m = msgs[i]
		}
		per[i] = cm.Cost(v, m)
		comm += per[i]
	}
	return per, comm
}

// duration is task i's simulated time: its Work plus, when comm is
// non-nil, its comm cost.
func duration(tasks []Task, comm []int64, i int) int64 {
	if comm == nil {
		return tasks[i].Work
	}
	return tasks[i].Work + comm[i]
}
