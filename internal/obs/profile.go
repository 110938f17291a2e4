package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/exec"
)

// ProcProfile is the time breakdown of one processor over a traced
// simulation. Busy + Comm + Idle == Makespan exactly (Idle is derived),
// and Stall <= Idle is the share of the idle time spent waiting on a
// specific dependency (the gaps the simulators attribute to a Cause task)
// as opposed to having no assigned ready work at all.
type ProcProfile struct {
	Proc  int
	Tasks int
	Busy  int64 // compute time
	Comm  int64 // communication time charged to this processor's tasks
	Stall int64 // dependency-wait share of Idle
	Idle  int64 // Makespan - Busy - Comm
}

// PathLink is one task on the critical path, oldest first. Edge records
// the constraint that bound the task's start: "start" for the chain head
// (t = 0), "processor" when the previous task on the same processor
// finished exactly then, "dependency" when a predecessor on another chain
// link did. Work and Comm split the link's duration, so summing Work+Comm
// over the path reproduces the makespan exactly (the chain is
// time-contiguous).
type PathLink struct {
	Task   int32
	Proc   int32
	Start  int64
	Finish int64
	Work   int64
	Comm   int64
	Edge   string
}

// Profile aggregates one traced simulation: the per-processor breakdown,
// the idle-gap histogram and the critical path.
type Profile struct {
	P        int
	Makespan int64
	Procs    []ProcProfile
	// IdleGaps is the histogram of every idle interval observed on any
	// processor: pre-task stalls, scheduling gaps, and the tail idle
	// between a processor's last finish and the makespan.
	IdleGaps Histogram
	// Critical is the chain of tasks whose finish times realize the
	// makespan, oldest first.
	Critical []PathLink
	// Degenerate counts measured events whose duration collapsed to zero
	// nanoseconds (Finish == Start), a clock-resolution artifact of real
	// runs: the task executed but contributed nothing to Busy and is
	// invisible in the idle-gap histogram. Only RealProfile sets it;
	// simulator events always have positive durations.
	Degenerate int
}

// Busy, Comm, Stall and Idle sum the per-processor fields.
func (p *Profile) Busy() int64  { return p.sum(func(pp *ProcProfile) int64 { return pp.Busy }) }
func (p *Profile) Comm() int64  { return p.sum(func(pp *ProcProfile) int64 { return pp.Comm }) }
func (p *Profile) Stall() int64 { return p.sum(func(pp *ProcProfile) int64 { return pp.Stall }) }
func (p *Profile) Idle() int64  { return p.sum(func(pp *ProcProfile) int64 { return pp.Idle }) }

func (p *Profile) sum(f func(*ProcProfile) int64) int64 {
	var s int64
	for i := range p.Procs {
		s += f(&p.Procs[i])
	}
	return s
}

// CriticalWork and CriticalComm sum the compute and communication time
// along the critical path; CriticalWork + CriticalComm == Makespan.
func (p *Profile) CriticalWork() int64 {
	var s int64
	for _, l := range p.Critical {
		s += l.Work
	}
	return s
}

func (p *Profile) CriticalComm() int64 {
	var s int64
	for _, l := range p.Critical {
		s += l.Comm
	}
	return s
}

// BuildProfile aggregates the events of one traced simulation into a
// Profile. events must be the complete event set of a single simulator
// run (one event per task) and res its SimResult; the per-processor
// totals then reconcile with res exactly: sum(Busy)+sum(Comm) ==
// res.TotalWork, sum(Comm) == res.Comm, sum(Idle) == res.Idle, and
// Busy+Comm+Idle == Makespan on every processor.
func BuildProfile(events []exec.TaskEvent, res exec.SimResult) (*Profile, error) {
	p := res.P
	prof := &Profile{P: p, Makespan: res.Makespan, Procs: make([]ProcProfile, p)}
	perProc := make([][]exec.TaskEvent, p)
	for _, ev := range events {
		if ev.Proc < 0 || int(ev.Proc) >= p {
			return nil, fmt.Errorf("obs: event for task %d on processor %d, simulation had %d", ev.Task, ev.Proc, p)
		}
		if ev.Finish-ev.Start != ev.Work+ev.Comm {
			return nil, fmt.Errorf("obs: task %d duration %d != work %d + comm %d",
				ev.Task, ev.Finish-ev.Start, ev.Work, ev.Comm)
		}
		perProc[ev.Proc] = append(perProc[ev.Proc], ev)
	}
	prof.aggregate(perProc)
	cp, err := criticalPath(perProc, events)
	if err != nil {
		return nil, err
	}
	prof.Critical = cp
	return prof, nil
}

// aggregate fills the per-processor breakdown and the idle-gap histogram
// from each processor's events, which it sorts by start time (simulators
// emit them in start order already; sorting stays agnostic). Makespan
// must already be set.
func (prof *Profile) aggregate(perProc [][]exec.TaskEvent) {
	for proc := range perProc {
		evs := perProc[proc]
		sort.Slice(evs, func(a, b int) bool {
			if evs[a].Start != evs[b].Start {
				return evs[a].Start < evs[b].Start
			}
			return evs[a].Task < evs[b].Task
		})
		pp := &prof.Procs[proc]
		pp.Proc = proc
		pp.Tasks = len(evs)
		var last int64
		for _, ev := range evs {
			pp.Busy += ev.Work
			pp.Comm += ev.Comm
			if ev.Cause >= 0 {
				pp.Stall += ev.Stall
			}
			if gap := ev.Start - last; gap > 0 {
				prof.IdleGaps.Add(gap)
			}
			last = ev.Finish
		}
		if gap := prof.Makespan - last; gap > 0 {
			prof.IdleGaps.Add(gap) // tail idle (whole makespan for empty procs)
		}
		pp.Idle = prof.Makespan - pp.Busy - pp.Comm
	}
}

// criticalPath walks the makespan-realizing chain backwards: from the
// event with the latest finish, each step follows either the Cause
// predecessor that bound the start (a dependency edge) or the previous
// task on the same processor (a processor edge), both of which finish
// exactly at the current start — so the chain is time-contiguous back to
// t = 0 and its durations sum to the makespan.
func criticalPath(perProc [][]exec.TaskEvent, events []exec.TaskEvent) ([]PathLink, error) {
	if len(events) == 0 {
		return nil, nil
	}
	byTask := make(map[int32]exec.TaskEvent, len(events))
	// prevOn[task] is the event finishing exactly when task starts on the
	// same processor, if any.
	prevOn := make(map[int32]int32, len(events))
	for _, evs := range perProc {
		for i, ev := range evs {
			byTask[ev.Task] = ev
			if i > 0 && evs[i-1].Finish == ev.Start {
				prevOn[ev.Task] = evs[i-1].Task
			}
		}
	}
	last := events[0]
	for _, ev := range events[1:] {
		if ev.Finish > last.Finish || (ev.Finish == last.Finish && ev.Task < last.Task) {
			last = ev
		}
	}
	var rev []PathLink
	cur := last
	for steps := 0; ; steps++ {
		if steps > len(events) {
			return nil, fmt.Errorf("obs: critical path does not terminate (cyclic cause chain)")
		}
		link := PathLink{
			Task: cur.Task, Proc: cur.Proc,
			Start: cur.Start, Finish: cur.Finish,
			Work: cur.Work, Comm: cur.Comm,
		}
		switch {
		case cur.Stall > 0 && cur.Cause >= 0:
			link.Edge = "dependency"
			next, ok := byTask[cur.Cause]
			if !ok {
				return nil, fmt.Errorf("obs: task %d stalls on task %d with no event", cur.Task, cur.Cause)
			}
			rev = append(rev, link)
			cur = next
		default:
			if prev, ok := prevOn[cur.Task]; ok {
				link.Edge = "processor"
				rev = append(rev, link)
				cur = byTask[prev]
				continue
			}
			link.Edge = "start"
			rev = append(rev, link)
			if cur.Start != 0 {
				return nil, fmt.Errorf("obs: critical path head task %d starts at %d, want 0", cur.Task, cur.Start)
			}
			out := make([]PathLink, len(rev))
			for i, l := range rev {
				out[len(rev)-1-i] = l
			}
			return out, nil
		}
	}
}

// Histogram is a power-of-two bucketed histogram of positive durations:
// Buckets[k] counts values v with 2^k <= v < 2^(k+1).
type Histogram struct {
	Buckets []int64
	Count   int64
	Sum     int64
	Max     int64
}

// Add records a value; non-positive values are ignored.
func (h *Histogram) Add(v int64) {
	if v <= 0 {
		return
	}
	k := bits.Len64(uint64(v)) - 1
	for len(h.Buckets) <= k {
		h.Buckets = append(h.Buckets, 0)
	}
	h.Buckets[k]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// String renders the histogram one bucket per line with a proportional
// bar, e.g. "[   16,    32)   5 #####".
func (h *Histogram) String() string {
	if h.Count == 0 {
		return "(no idle gaps)\n"
	}
	var peak int64
	for _, c := range h.Buckets {
		if c > peak {
			peak = c
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d gaps, sum %d, max %d\n", h.Count, h.Sum, h.Max)
	for k, c := range h.Buckets {
		if c == 0 {
			continue
		}
		bar := int(c * 40 / peak)
		if bar == 0 {
			bar = 1
		}
		fmt.Fprintf(&sb, "[%8d, %8d) %6d %s\n", int64(1)<<k, int64(1)<<(k+1), c, strings.Repeat("#", bar))
	}
	return sb.String()
}

// FormatProfile renders the per-processor breakdown, the critical-path
// attribution and the idle-gap histogram as a terminal report.
func FormatProfile(p *Profile) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "P=%d makespan=%d\n", p.P, p.Makespan)
	fmt.Fprintf(&sb, "%-5s %7s %12s %12s %12s %12s\n", "proc", "tasks", "busy", "comm", "stall", "idle")
	for i := range p.Procs {
		pp := &p.Procs[i]
		fmt.Fprintf(&sb, "P%-4d %7d %12d %12d %12d %12d\n", pp.Proc, pp.Tasks, pp.Busy, pp.Comm, pp.Stall, pp.Idle)
	}
	fmt.Fprintf(&sb, "total busy=%d comm=%d stall=%d idle=%d (busy+comm+idle = P*makespan = %d)\n",
		p.Busy(), p.Comm(), p.Stall(), p.Idle(), int64(p.P)*p.Makespan)
	deps := 0
	for _, l := range p.Critical {
		if l.Edge == "dependency" {
			deps++
		}
	}
	fmt.Fprintf(&sb, "critical path: %d tasks (compute %d + comm %d = makespan), %d dependency hops\n",
		len(p.Critical), p.CriticalWork(), p.CriticalComm(), deps)
	if p.Degenerate > 0 {
		fmt.Fprintf(&sb, "degenerate events: %d (zero measured duration, clock resolution)\n", p.Degenerate)
	}
	sb.WriteString("idle gaps: ")
	sb.WriteString(p.IdleGaps.String())
	return sb.String()
}
