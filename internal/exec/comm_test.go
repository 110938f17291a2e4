package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/sched"
)

// slackDAG is a three-task graph with intra-processor slack: processor 1's
// first task in scan order depends on a long task on processor 0, while
// its second task is free. Static order stalls on the dependency; the
// dynamic ready queue runs the free task first.
func slackDAG() []Task {
	return []Task{
		{Proc: 0, Work: 10},
		{Proc: 1, Work: 1, Preds: []int32{0}},
		{Proc: 1, Work: 5},
	}
}

func TestCommModelCost(t *testing.T) {
	var zero CommModel
	if !zero.IsZero() {
		t.Error("zero CommModel: IsZero() = false")
	}
	if got := zero.Cost(1000, 50); got != 0 {
		t.Errorf("zero model Cost = %d, want 0", got)
	}
	cm := CommModel{Alpha: 1.5, Beta: 2}
	if cm.IsZero() {
		t.Error("nonzero CommModel: IsZero() = true")
	}
	if got := cm.Cost(10, 2); got != 19 {
		t.Errorf("Cost(10, 2) = %d, want 15+4 = 19", got)
	}
	// Monotone in every argument.
	if cm.Cost(11, 2) < cm.Cost(10, 2) || cm.Cost(10, 3) < cm.Cost(10, 2) {
		t.Error("Cost not monotone in vol/msgs")
	}
	if (CommModel{Alpha: 2, Beta: 2}).Cost(10, 2) < cm.Cost(10, 2) {
		t.Error("Cost not monotone in Alpha")
	}
}

// TestCommInflateTasks pins the per-task comm cost vector and its total,
// and holds the comm-aware simulators to plain simulations of tasks
// inflated by hand, on the slack DAG and on a seeded random graph.
func TestCommInflateTasks(t *testing.T) {
	tasks := slackDAG()
	vol := []int64{4, 0, 2}
	msgs := []int64{2, 0, 1}
	cm := CommModel{Alpha: 2, Beta: 10}
	per, comm := commCosts(len(tasks), cm, vol, msgs)
	if want := []int64{8 + 20, 0, 4 + 10}; !slices.Equal(per, want) {
		t.Errorf("per = %v, want %v", per, want)
	}
	if comm != 28+0+14 {
		t.Errorf("comm total = %d, want %d", comm, 28+0+14)
	}
	// nil vol/msgs mean no communication for that term.
	if _, c := commCosts(len(tasks), cm, nil, msgs); c != 30 {
		t.Errorf("nil vol: comm = %d, want 30", c)
	}
	if _, c := commCosts(len(tasks), cm, vol, nil); c != 12 {
		t.Errorf("nil msgs: comm = %d, want 12", c)
	}
	checkInflated(t, "slack DAG", tasks, 2, SimOptions{Comm: cm, Vol: vol, Msgs: msgs})

	rng := rand.New(rand.NewSource(7))
	const n, p = 60, 4
	tasks, vol, msgs = make([]Task, n), make([]int64, n), make([]int64, n)
	for i := range tasks {
		tasks[i] = Task{Proc: int32(rng.Intn(p)), Work: rng.Int63n(50)}
		for pr := 0; pr < i; pr++ {
			if rng.Intn(8) == 0 {
				tasks[i].Preds = append(tasks[i].Preds, int32(pr))
			}
		}
		vol[i], msgs[i] = rng.Int63n(30), rng.Int63n(4)
	}
	for _, cm := range []CommModel{{Alpha: 1.5}, {Beta: 7}, {Alpha: 0.5, Beta: 3, Gamma: 2}} {
		checkInflated(t, fmt.Sprintf("random DAG %+v", cm), tasks, p, SimOptions{Comm: cm, Vol: vol, Msgs: msgs})
	}
}

// checkInflated runs the comm-aware simulation o (static and dynamic) of
// tasks and the plain one of a copy whose Work holds each task's work plus
// its comm cost, and wants the same makespan and total, and event for
// event the same interval, stall and cause, with the comm run's duration
// split into the task's own Work and its cost. tasks must be left as given.
func checkInflated(t *testing.T, what string, tasks []Task, p int, o SimOptions) {
	t.Helper()
	inflated := slices.Clone(tasks)
	work := make([]int64, len(tasks))
	var comm int64
	for i := range inflated {
		var v, m int64
		if o.Vol != nil {
			v = o.Vol[i]
		}
		if o.Msgs != nil {
			m = o.Msgs[i]
		}
		c := o.Comm.Cost(v, m)
		inflated[i].Work += c
		work[i] = tasks[i].Work
		comm += c
	}
	for _, dynamic := range []bool{false, true} {
		var got, want []TaskEvent
		o.Dynamic = dynamic
		o.Probe = probeFunc(func(ev TaskEvent) { got = append(got, ev) })
		res := Simulate(tasks, p, o)
		plain := Simulate(inflated, p, SimOptions{Dynamic: dynamic, Probe: probeFunc(func(ev TaskEvent) { want = append(want, ev) })})
		if res.Makespan != plain.Makespan || res.TotalWork != plain.TotalWork || res.Comm != comm {
			t.Fatalf("%s dynamic=%v: makespan %d, total %d, comm %d; inflated by hand %d, %d, %d",
				what, dynamic, res.Makespan, res.TotalWork, res.Comm, plain.Makespan, plain.TotalWork, comm)
		}
		if len(got) != len(want) {
			t.Fatalf("%s dynamic=%v: %d events, inflated by hand %d", what, dynamic, len(got), len(want))
		}
		for e, g := range got {
			w := want[e]
			if g.Work != work[g.Task] || g.Work+g.Comm != w.Work || w.Comm != 0 {
				t.Fatalf("%s dynamic=%v: event %d splits %d + %d, want %d + %d", what, dynamic, e, g.Work, g.Comm, work[g.Task], w.Work-work[g.Task])
			}
			g.Work, g.Comm = w.Work, 0
			if g != w {
				t.Fatalf("%s dynamic=%v: event %d = %+v, inflated by hand %+v", what, dynamic, e, g, w)
			}
		}
	}
	for i := range tasks {
		if tasks[i].Work != work[i] {
			t.Fatalf("%s: the simulation changed task %d's work", what, i)
		}
	}
}

// TestCommZeroIdentityDAG: a zero model reproduces the compute-only
// simulators bit for bit, including nonzero volumes being ignored.
func TestCommZeroIdentityDAG(t *testing.T) {
	tasks := slackDAG()
	vol := []int64{100, 200, 300}
	msgs := []int64{7, 8, 9}
	const p = 2
	if got, want := Simulate(tasks, p, SimOptions{Comm: CommModel{}, Vol: vol, Msgs: msgs}), Simulate(tasks, p, SimOptions{}); got != want {
		t.Errorf("static zero model: %+v != %+v", got, want)
	}
	if got, want := Simulate(tasks, p, SimOptions{Dynamic: true, Comm: CommModel{}, Vol: vol, Msgs: msgs}), Simulate(tasks, p, SimOptions{Dynamic: true}); got != want {
		t.Errorf("dynamic zero model: %+v != %+v", got, want)
	}
}

// TestCommMonotonicStaticDAG: the static makespan is non-decreasing in
// both model parameters (task finish times are monotone in durations under
// static list scheduling).
func TestCommMonotonicStaticDAG(t *testing.T) {
	tasks := slackDAG()
	vol := []int64{4, 1, 2}
	msgs := []int64{2, 1, 1}
	const p = 2
	prev := int64(-1)
	for _, a := range []float64{0, 0.5, 1, 2, 5, 10} {
		span := Simulate(tasks, p, SimOptions{Comm: CommModel{Alpha: a, Beta: 3}, Vol: vol, Msgs: msgs}).Makespan
		if span < prev {
			t.Errorf("alpha=%g: static span %d < previous %d", a, span, prev)
		}
		prev = span
	}
	prev = -1
	for _, b := range []float64{0, 1, 5, 20} {
		span := Simulate(tasks, p, SimOptions{Comm: CommModel{Alpha: 1, Beta: b}, Vol: vol, Msgs: msgs}).Makespan
		if span < prev {
			t.Errorf("beta=%g: static span %d < previous %d", b, span, prev)
		}
		prev = span
	}
}

// TestCommDynamicSlackDAG: on a DAG with intra-processor slack the dynamic
// ready queue recovers the stall, under the compute-only model and under
// comm-inflated durations alike.
func TestCommDynamicSlackDAG(t *testing.T) {
	tasks := slackDAG()
	const p = 2
	st := Simulate(tasks, p, SimOptions{})
	dy := Simulate(tasks, p, SimOptions{Dynamic: true})
	if st.Makespan != 16 || dy.Makespan != 11 {
		t.Fatalf("slack DAG spans: static %d (want 16), dynamic %d (want 11)",
			st.Makespan, dy.Makespan)
	}
	vol := []int64{4, 1, 2}
	msgs := []int64{2, 1, 1}
	for _, cm := range []CommModel{{}, {Alpha: 1}, {Alpha: 2, Beta: 10}, {Beta: 5}} {
		cst := Simulate(tasks, p, SimOptions{Comm: cm, Vol: vol, Msgs: msgs})
		cdy := Simulate(tasks, p, SimOptions{Dynamic: true, Comm: cm, Vol: vol, Msgs: msgs})
		if cdy.Makespan > cst.Makespan {
			t.Errorf("model %+v: dynamic span %d > static %d", cm, cdy.Makespan, cst.Makespan)
		}
		if cst.Makespan < st.Makespan || cdy.Makespan < dy.Makespan {
			t.Errorf("model %+v: comm-aware span below compute-only (static %d<%d or dynamic %d<%d)",
				cm, cst.Makespan, st.Makespan, cdy.Makespan, dy.Makespan)
		}
		if cst.Comm != cdy.Comm {
			t.Errorf("model %+v: static comm %d != dynamic comm %d", cm, cst.Comm, cdy.Comm)
		}
	}
}

// TestSimulateRejectsInvalidCommModel: a NaN, infinite or negative term
// of the model panics with its name, as mismatched lengths do, on every
// simulator. Unchecked, block at P = 4 on LAP30 read makespan 0, Comm
// -2⁶³ and efficiency 1 under Alpha NaN, and a makespan below the
// compute-only one under Alpha -5.
func TestSimulateRejectsInvalidCommModel(t *testing.T) {
	pp := buildPipe(gen.Lap30(), 25, 4)
	tasks := BlockTasks(pp.part, sched.BlockMap(pp.part, 4))
	ones := make([]int64, len(tasks))
	for i := range ones {
		ones[i] = 1
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		cm   CommModel
		name string
	}{
		{CommModel{Alpha: nan}, "Alpha = NaN"},
		{CommModel{Alpha: -5}, "Alpha = -5"},
		{CommModel{Alpha: inf}, "Alpha = +Inf"},
		{CommModel{Alpha: 2, Beta: nan}, "Beta = NaN"},
		{CommModel{Beta: -inf}, "Beta = -Inf"},
		{CommModel{Gamma: -1}, "Gamma = -1"},
		{CommModel{Alpha: 2, Beta: 10, Gamma: inf}, "Gamma = +Inf"},
	} {
		for _, dyn := range []bool{false, true} {
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.HasPrefix(msg, "exec: ") || !strings.Contains(msg, tc.name) {
						t.Errorf("%+v dynamic=%t: panic %q, want one naming %q", tc.cm, dyn, msg, tc.name)
					}
				}()
				Simulate(tasks, 4, SimOptions{Dynamic: dyn, Comm: tc.cm, Vol: ones, Msgs: ones})
			}()
		}
	}
}
