package exec

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

// IsZero reports whether the model charges nothing.
func (c CommModel) IsZero() bool { return c.Alpha == 0 && c.Beta == 0 && c.Gamma == 0 }

// Cost returns the non-compute time of a task that fetches vol elements
// in msgs messages: the comm terms plus the per-task fixed overhead. The
// value is truncated to integer work units (the convention of the Ext-L
// study), so a zero model adds exactly nothing and costs are monotone in
// Alpha, Beta, Gamma, vol and msgs.
func (c CommModel) Cost(vol, msgs int64) int64 {
	return int64(c.Alpha*float64(vol)) + int64(c.Beta*float64(msgs)) + int64(c.Gamma)
}

// inflateTasks returns a copy of tasks whose durations include the comm
// cost of their fetch volumes and message counts, the per-task comm vector
// (which lets a probe split each event's duration into compute and
// communication) and the total comm time added. vol and msgs may be nil
// (that term is not charged); Simulate has checked their lengths.
func inflateTasks(tasks []Task, cm CommModel, vol, msgs []int64) ([]Task, []int64, int64) {
	out := make([]Task, len(tasks))
	per := make([]int64, len(tasks))
	var comm int64
	for i, t := range tasks {
		out[i] = t
		var v, m int64
		if vol != nil {
			v = vol[i]
		}
		if msgs != nil {
			m = msgs[i]
		}
		c := cm.Cost(v, m)
		out[i].Work = t.Work + c
		per[i] = c
		comm += c
	}
	return out, per, comm
}
