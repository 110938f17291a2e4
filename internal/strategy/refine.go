package strategy

import (
	"fmt"
	"slices"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// Default move caps for the refinement objectives. Imbalance moves cost
// O(P + units-on-source); commspan moves each re-run the fetch
// attribution plus the dynamic makespan simulation, the most expensive
// evaluation of the three. A traffic move costs only the moved unit's
// read records and elements (traffic.Incremental). Its budget is not
// sized to that cost: the refined schedule depends on it, so raising it
// changes the schedules and counts in the ledger and belongs in a change
// that says so.
const (
	defaultImbalanceMoves = 1024
	defaultTrafficMoves   = 64
	defaultCommspanMoves  = 48
)

// objectiveFunc is one refinement objective: it improves sc in place by
// moving movables between processors, never accepting a worsening move.
type objectiveFunc func(sys *Sys, opts Options, sc *sched.Schedule, mv []movable, own []int32, maxMoves int)

// objectives is the refinement-objective table; Refine dispatches on it
// and lists it in its unknown-objective error, so a new objective added
// here is automatically reachable and advertised.
var objectives = Registry[objectiveFunc]{
	{"commspan", refineCommspan},
	{"imbalance", func(_ *Sys, opts Options, sc *sched.Schedule, mv []movable, own []int32, maxMoves int) {
		refineImbalance(sc, mv, own, maxMoves, opts.Search)
	}},
	{"traffic", refineTraffic},
}

// Objectives returns the sorted names of the refinement objectives the
// refine strategy accepts (so CLIs can validate and advertise the set
// without hardcoding it).
func Objectives() []string { return objectives.Names() }

// refine composes a greedy local-refinement pass on top of any base
// strategy: it repeatedly moves one schedulable unit (a unit block for
// block-granular bases, a column otherwise) between processors while the
// move strictly improves the objective — the paper's load imbalance
// factor A by default, the simulated data traffic, or the unified
// comm-aware dynamic makespan. The pass never accepts a worsening move,
// so the refined schedule's objective is never worse than the base
// schedule's.
func refine(sys *Sys, p int, opts Options) (*sched.Schedule, error) {
	base := opts.Base
	if base == "" {
		base = "block"
	}
	if base == "refine" {
		return nil, fmt.Errorf("strategy: refine cannot use itself as base")
	}
	sc, err := Map(base, sys, p, opts)
	if err != nil {
		return nil, err
	}
	return Refine(sys, opts, sc)
}

// movable is one unit the refinement pass may reassign: a unit block of
// the partition, or a whole column for column-granular schedules.
type movable struct {
	work  int64
	elems int     // factor nonzeros in this unit
	preds []int32 // movable IDs this unit reads from (locality signal)
}

// Refine runs the greedy local-refinement pass of the "refine" strategy
// on an existing schedule, returning a new schedule (the input is left
// untouched). The granularity is the schedule's own: the unit blocks of
// its partition when it has one, its columns otherwise, which must be
// those of sys.F.
func Refine(sys *Sys, opts Options, base *sched.Schedule) (*sched.Schedule, error) {
	sc := cloneSchedule(base)
	mv, own, err := movables(sys, sc)
	if err != nil {
		return nil, err
	}
	name := opts.Objective
	if name == "" {
		name = "imbalance"
	}
	fn, err := objectives.Find("strategy: unknown refine objective", name)
	if err != nil {
		return nil, err
	}
	fn(sys, opts, sc, mv, own, opts.MaxMoves)
	return sc, nil
}

func cloneSchedule(s *sched.Schedule) *sched.Schedule {
	return &sched.Schedule{
		P:        s.P,
		F:        s.F,
		Part:     s.Part,
		UnitProc: slices.Clone(s.UnitProc),
		ColProc:  slices.Clone(s.ColProc),
		Work:     slices.Clone(s.Work),
	}
}

// movables builds the refinement units of a schedule and returns them
// with the schedule's own owner vector, UnitProc or ColProc, which the
// pass then moves them in.
func movables(sys *Sys, sc *sched.Schedule) ([]movable, []int32, error) {
	if part := sc.Part; part != nil {
		mv := make([]movable, len(part.Units))
		for i := range part.Units {
			u := &part.Units[i]
			mv[i] = movable{work: u.Work, elems: u.Elems, preds: u.Preds}
		}
		return mv, sc.UnitProc, nil
	}
	f := sys.F
	if sc.ColProc == nil || sc.F != f {
		return nil, nil, fmt.Errorf("strategy: schedule is not a column schedule of the analysis factor")
	}
	// A column reads every column of its row, not only the
	// elimination-tree children a column graph waits on: the full
	// locality signal.
	colWork := sys.ColumnWork()
	mv := make([]movable, f.N)
	rows := make([]int32, 0, f.NNZ()-f.N)
	for j := 0; j < f.N; j++ {
		e := len(rows)
		rows = f.AppendRow(rows, j, false)
		mv[j] = movable{work: colWork[j], elems: f.ColLen(j), preds: rows[e:len(rows):len(rows)]}
	}
	return mv, sc.ColProc, nil
}

// reown reassigns movable u to processor dst, updating the schedule's
// owner vector own and its per-processor work in place.
func reown(sc *sched.Schedule, mv []movable, own []int32, u int, dst int32) {
	src := own[u]
	own[u] = dst
	sc.Work[src] -= mv[u].work
	sc.Work[dst] += mv[u].work
}

// refineImbalance repeatedly moves a unit from an overloaded processor to
// the least-loaded one when that strictly lowers the pair's bottleneck
// without raising the global maximum; each accepted move strictly
// decreases the sum of squared processor loads, so the pass terminates
// and the imbalance factor A never increases. tel, when non-nil, records
// one accepted trial per move and the bottleneck-work trajectory.
func refineImbalance(sc *sched.Schedule, mv []movable, own []int32, maxMoves int, tel *obs.SearchTelemetry) {
	if maxMoves <= 0 {
		maxMoves = defaultImbalanceMoves
	}
	p := sc.P
	if p < 2 {
		return
	}
	bottleneck := func() int64 {
		var m int64
		for _, w := range sc.Work {
			if w > m {
				m = w
			}
		}
		return m
	}
	tel.Objective(bottleneck())
	// byProc[k] lists the movables currently on processor k.
	byProc := make([][]int, p)
	for u := range mv {
		byProc[own[u]] = append(byProc[own[u]], u)
	}
	for moves := 0; moves < maxMoves; {
		dst := int32(sched.LeastLoaded(sc.Work))
		// Scan sources from most loaded down; the first source with an
		// improving move takes it.
		order := make([]int32, 0, p)
		for k := 0; k < p; k++ {
			if int32(k) != dst {
				order = append(order, int32(k))
			}
		}
		for a := 1; a < len(order); a++ {
			for b := a; b > 0 && sc.Work[order[b]] > sc.Work[order[b-1]]; b-- {
				order[b], order[b-1] = order[b-1], order[b]
			}
		}
		moved := false
		for _, src := range order {
			gap := sc.Work[src] - sc.Work[dst]
			if gap <= 0 {
				break
			}
			// Best unit: minimize the pair bottleneck max(Wsrc-w, Wdst+w);
			// any unit with 0 < w < gap strictly improves it.
			best, bestBot := -1, sc.Work[src]
			for _, u := range byProc[src] {
				w := mv[u].work
				if w <= 0 || w >= gap {
					continue
				}
				bot := sc.Work[src] - w
				if d := sc.Work[dst] + w; d > bot {
					bot = d
				}
				if bot < bestBot {
					best, bestBot = u, bot
				}
			}
			if best < 0 {
				continue
			}
			reown(sc, mv, own, best, dst)
			list := byProc[src]
			for i, u := range list {
				if u == best {
					list[i] = list[len(list)-1]
					byProc[src] = list[:len(list)-1]
					break
				}
			}
			byProc[dst] = append(byProc[dst], best)
			moves++
			moved = true
			tel.Trial(true)
			tel.Objective(bottleneck())
			break
		}
		if !moved {
			return
		}
	}
}

// buildSuccs inverts the movables' predecessor lists: succs[u] holds the
// movables reading from u, the other half of u's dependency neighborhood.
func buildSuccs(mv []movable) [][]int32 {
	succs := make([][]int32, len(mv))
	for u := range mv {
		for _, pr := range mv[u].preds {
			succs[pr] = append(succs[pr], int32(u))
		}
	}
	return succs
}

// pluralityOwner returns the processor owning the plurality of movable
// u's dependency neighborhood (predecessors plus successors), defaulting
// to u's current owner on a tie or an empty neighborhood. tally is a
// caller-provided scratch vector of length P.
func pluralityOwner(mv []movable, succs [][]int32, own []int32, u int, tally []int64) int32 {
	for k := range tally {
		tally[k] = 0
	}
	for _, pr := range mv[u].preds {
		tally[own[pr]]++
	}
	for _, sx := range succs[u] {
		tally[own[sx]]++
	}
	tgt := own[u]
	for k := range tally {
		if tally[k] > tally[tgt] {
			tgt = int32(k)
		}
	}
	return tgt
}

// refineTraffic tries moving each unit to the processor owning most of
// its dependency neighborhood (predecessors and successors), keeping a
// move only when the total traffic strictly decreases. The totals are
// exact: one traffic.Incremental is built over the input schedule with
// the units as its groups (4·nnz(L)·P bytes, dropped on return; the
// groups' records are the Sys's, built once), a trial moves the unit
// through it and a rejected one moves it back.
func refineTraffic(sys *Sys, opts Options, sc *sched.Schedule, mv []movable, own []int32, maxMoves int) {
	if maxMoves <= 0 {
		maxMoves = defaultTrafficMoves
	}
	inc := traffic.NewIncremental(sys.trafficGroups(sc), sc)
	// trial moves unit u to dst and returns the traffic after it.
	trial := func(u int, dst int32) int64 {
		t := inc.Move(u, dst)
		reown(sc, mv, own, u, dst)
		return t
	}
	cur := inc.Total()
	opts.Search.Objective(cur)
	succs := buildSuccs(mv)
	tally := make([]int64, sc.P)
	moves := 0
	for {
		improved := false
		for u := range mv {
			if moves >= maxMoves {
				return
			}
			if mv[u].work == 0 && mv[u].elems == 0 {
				continue
			}
			tgt := pluralityOwner(mv, succs, own, u, tally)
			if tgt == own[u] {
				continue
			}
			src := own[u]
			moves++
			if t := trial(u, tgt); t < cur {
				cur = t
				improved = true
				opts.Search.Trial(true)
				opts.Search.Objective(t)
			} else {
				trial(u, src)
				opts.Search.Trial(false)
			}
		}
		if !improved {
			return
		}
	}
}

// refineCommspan hill-climbs the unified comm-aware dynamic makespan
// (exec.Simulate, dynamic, under opts.Comm and the schedule's fetch
// attribution): for each
// unit it tries the processor owning the plurality of its dependency
// neighborhood and the least-loaded processor, keeping a move only when
// the re-evaluated span strictly decreases. The task graph's topology and
// compute work never change across moves, so it is built once; each trial
// still re-runs the full fetch attribution (traffic.FetchStats over the
// updated ownership) and the list simulation, which is why
// defaultCommspanMoves is the smallest budget of the three objectives. A
// rejected trial is reverted, so the returned schedule's span never
// exceeds the input's.
func refineCommspan(sys *Sys, opts Options, sc *sched.Schedule, mv []movable, own []int32, maxMoves int) {
	if maxMoves <= 0 {
		maxMoves = defaultCommspanMoves
	}
	if sc.P < 2 {
		return
	}
	tasks := Tasks(sys, opts, sc)
	eval := func() int64 {
		tc := FetchStats(sys, opts, sc)
		return exec.Simulate(tasks, sc.P, exec.SimOptions{
			Dynamic: true, Comm: opts.Comm, Vol: tc.Vol, Msgs: tc.Msgs,
		}).Makespan
	}
	cur := eval()
	opts.Search.Objective(cur)
	succs := buildSuccs(mv)
	tally := make([]int64, sc.P)
	moves := 0
	for {
		improved := false
		for u := range mv {
			if moves >= maxMoves {
				return
			}
			if mv[u].work == 0 && mv[u].elems == 0 {
				continue
			}
			near := pluralityOwner(mv, succs, own, u, tally)
			idle := int32(sched.LeastLoaded(sc.Work))
			for ci, tgt := range [...]int32{near, idle} {
				src := own[u]
				if tgt == src || (ci == 1 && tgt == near) {
					continue
				}
				reown(sc, mv, own, u, tgt)
				tasks[u].Proc = tgt
				moves++
				if t := eval(); t < cur {
					cur = t
					improved = true
					opts.Search.Trial(true)
					opts.Search.Objective(t)
					break
				}
				reown(sc, mv, own, u, src)
				tasks[u].Proc = src
				opts.Search.Trial(false)
				if moves >= maxMoves {
					return
				}
			}
		}
		if !improved {
			return
		}
	}
}
