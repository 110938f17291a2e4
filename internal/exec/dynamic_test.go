package exec

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sched"
)

// TestDynamicNeverWorseThanStatic draws random patterns and asserts what
// holds for every fixed assignment: the dynamic span lies between the
// lower bounds (critical path, heaviest processor) and the serial time,
// and both disciplines account the same work. "Dynamic <= static" itself
// is not a theorem — list scheduling has Graham anomalies, and a
// priority-ordered ready queue can start a long task just before a
// critical one becomes ready — so it is asserted only where it is pinned by
// construction, on the hand-built slack DAGs of comm_test.go.
func TestDynamicNeverWorseThanStatic(t *testing.T) {
	fc := func(seed int64) bool {
		p := buildPipe(gen.Random(60, 1.4, seed), 4, 3)
		for _, np := range []int{2, 4, 8} {
			s := sched.BlockMap(p.part, np)
			tasks := BlockTasks(p.part, s)
			st := Simulate(tasks, np, SimOptions{})
			dy := Simulate(tasks, np, SimOptions{Dynamic: true})
			if dy.Makespan < CriticalPath(tasks) || dy.Makespan < s.MaxWork() {
				return false
			}
			if dy.Makespan > dy.TotalWork {
				return false
			}
			if dy.TotalWork != st.TotalWork {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fc, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicSingleProc(t *testing.T) {
	p := buildPipe(gen.Lap30(), 25, 4)
	s := sched.BlockMap(p.part, 1)
	r := Simulate(BlockTasks(p.part, s), 1, SimOptions{Dynamic: true})
	if r.Makespan != r.TotalWork || r.Idle != 0 || r.Efficiency != 1 {
		t.Fatalf("P=1 dynamic: %+v", r)
	}
}

func TestDynamicKnownSchedule(t *testing.T) {
	// Two independent chains on one processor plus a cross dependency:
	//   t0 (5) -> t2 (2)   on proc 0: t0, t1, t2; proc 1: t3 (dep t1).
	//   t1 (1)
	// Static order on proc 0 runs t0, t1, t2 -> t1 done at 6, so t3
	// starts at 6. Dynamic priority puts t1 first when profitable.
	tasks := []Task{
		{ID: 0, Proc: 0, Work: 5},
		{ID: 1, Proc: 0, Work: 1},
		{ID: 2, Proc: 0, Work: 2, Preds: []int32{0}},
		{ID: 3, Proc: 1, Work: 10, Preds: []int32{1}},
	}
	st := Simulate(tasks, 2, SimOptions{})
	dy := Simulate(tasks, 2, SimOptions{Dynamic: true})
	// Bottom levels: t1 has 1+10=11 > t0's 5+2=7, so dynamic runs t1
	// first: t1 done at 1, t3 done at 11; proc0: t0 at 6, t2 at 8.
	if dy.Makespan != 11 {
		t.Errorf("dynamic makespan = %d, want 11", dy.Makespan)
	}
	// Static: t0 at 5, t1 at 6, t3 at 16.
	if st.Makespan != 16 {
		t.Errorf("static makespan = %d, want 16", st.Makespan)
	}
}

func TestDynamicColumnTasks(t *testing.T) {
	p := buildPipe(gen.Lap30(), 4, 4)
	for _, np := range []int{4, 16} {
		tasks := columnTasks(p.f, p.ops, p.ew, np)
		st := Simulate(tasks, np, SimOptions{})
		dy := Simulate(tasks, np, SimOptions{Dynamic: true})
		if dy.Makespan > st.Makespan {
			t.Errorf("P=%d: dynamic %d worse than static %d", np, dy.Makespan, st.Makespan)
		}
	}
}

// TestSimulateDynamicAllocs: the dynamic simulator allocates the same
// number of times on a graph and on one 16 x larger — nothing per task,
// per successor or per heap push.
func TestSimulateDynamicAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		p := buildPipe(gen.Grid9(n, n), 4, 4)
		tasks := columnTasks(p.f, p.ops, p.ew, 4)
		return testing.AllocsPerRun(3, func() { Simulate(tasks, 4, SimOptions{Dynamic: true}) })
	}
	small, large := allocs(10), allocs(40)
	if small != large {
		t.Errorf("allocations grow with the graph: %v on Grid9(10,10), %v on Grid9(40,40)", small, large)
	}
}

// BenchmarkDynamicMakespanLap30 is where ROADMAP's layer row for the
// dynamic simulator comes from (ms and, with -benchmem, allocations per
// run on a g = 4 block plan at P = 16): ./benchmark times the static and
// comm-aware static simulators and has no metric for this one.
func BenchmarkDynamicMakespanLap30(b *testing.B) {
	p := buildPipe(gen.Lap30(), 4, 4)
	s := sched.BlockMap(p.part, 16)
	tasks := BlockTasks(p.part, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(tasks, 16, SimOptions{Dynamic: true})
	}
}
