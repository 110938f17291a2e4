package exec

import "testing"

// slackDAG is a three-task graph with intra-processor slack: processor 1's
// first task in scan order depends on a long task on processor 0, while
// its second task is free. Static order stalls on the dependency; the
// dynamic ready queue runs the free task first.
func slackDAG() []Task {
	return []Task{
		{ID: 0, Proc: 0, Work: 10},
		{ID: 1, Proc: 1, Work: 1, Preds: []int32{0}},
		{ID: 2, Proc: 1, Work: 5},
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

func TestCommInflateTasks(t *testing.T) {
	tasks := slackDAG()
	vol := []int64{4, 0, 2}
	msgs := []int64{2, 0, 1}
	cm := CommModel{Alpha: 2, Beta: 10}
	inflated, per, comm := inflateTasks(tasks, cm, vol, msgs)
	wantWork := []int64{10 + 8 + 20, 1, 5 + 4 + 10}
	var wantComm int64 = 28 + 0 + 14
	for i := range inflated {
		if inflated[i].Work != wantWork[i] {
			t.Errorf("inflated[%d].Work = %d, want %d", i, inflated[i].Work, wantWork[i])
		}
		if per[i] != wantWork[i]-tasks[i].Work {
			t.Errorf("per[%d] = %d, want the comm share %d", i, per[i], wantWork[i]-tasks[i].Work)
		}
	}
	if comm != wantComm {
		t.Errorf("comm total = %d, want %d", comm, wantComm)
	}
	// The input tasks are untouched.
	if tasks[0].Work != 10 || tasks[2].Work != 5 {
		t.Errorf("inflateTasks modified its input: %+v", tasks)
	}
	// nil vol/msgs mean no communication for that term.
	if _, _, c := inflateTasks(tasks, cm, nil, msgs); c != 30 {
		t.Errorf("nil vol: comm = %d, want 30", c)
	}
	if _, _, c := inflateTasks(tasks, cm, vol, nil); c != 12 {
		t.Errorf("nil msgs: comm = %d, want 12", c)
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
