package exec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/sched"
)

// simVariants enumerates the eight SimOptions combinations — {static,
// dynamic} x {compute, comm} x {plain, traced} — over one fetch
// attribution. probe is attached to the traced half.
func simVariants(cm CommModel, vol, msgs []int64, probe Probe) []struct {
	name string
	o    SimOptions
} {
	var out []struct {
		name string
		o    SimOptions
	}
	for _, dyn := range []bool{false, true} {
		for _, comm := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				o := SimOptions{Dynamic: dyn}
				if comm {
					o.Comm, o.Vol, o.Msgs = cm, vol, msgs
				}
				if traced {
					o.Probe = probe
				}
				out = append(out, struct {
					name string
					o    SimOptions
				}{fmt.Sprintf("dynamic=%v/comm=%v/traced=%v", dyn, comm, traced), o})
			}
		}
	}
	return out
}

// TestSimulateVariants is the one table over the simulator cube, on the
// unit-block and the column task graphs of LAP30 at P in {1, 4, 16}: a
// probe never changes a result and sees every task exactly once with its
// duration split conserving TotalWork and Comm; a zero CommModel is the
// compute-only run whatever Vol and Msgs hold; charging communication
// adds exactly Comm to TotalWork and never shortens a static span.
func TestSimulateVariants(t *testing.T) {
	p := buildPipe(gen.Lap30(), 25, 4)
	cm := CommModel{Alpha: 2, Beta: 10, Gamma: 1}
	for _, np := range []int{1, 4, 16} {
		graphs := map[string][]Task{
			"block":  BlockTasks(p.part, sched.BlockMap(p.part, np)),
			"column": columnTasks(p.f, p.ops, p.ew, np),
		}
		for _, gname := range []string{"block", "column"} {
			tasks := graphs[gname]
			vol, msgs := make([]int64, len(tasks)), make([]int64, len(tasks))
			for i := range tasks {
				vol[i], msgs[i] = int64(i%7), int64(i%3)
			}
			var events []TaskEvent
			probe := probeFunc(func(ev TaskEvent) { events = append(events, ev) })
			results := map[string]SimResult{}
			for _, v := range simVariants(cm, vol, msgs, probe) {
				events = events[:0]
				res := Simulate(tasks, np, v.o)
				results[v.name] = res
				if v.o.Probe == nil {
					continue
				}
				if len(events) != len(tasks) {
					t.Fatalf("%s P=%d %s: %d events for %d tasks", gname, np, v.name, len(events), len(tasks))
				}
				seen := make([]bool, len(tasks))
				var work, comm int64
				for _, ev := range events {
					if seen[ev.Task] {
						t.Fatalf("%s P=%d %s: task %d traced twice", gname, np, v.name, ev.Task)
					}
					seen[ev.Task] = true
					work += ev.Work
					comm += ev.Comm
					if ev.Finish-ev.Start != ev.Work+ev.Comm {
						t.Fatalf("%s P=%d %s: event %+v duration != work+comm", gname, np, v.name, ev)
					}
				}
				if work+comm != res.TotalWork || comm != res.Comm {
					t.Errorf("%s P=%d %s: events sum to work %d comm %d, result %+v", gname, np, v.name, work, comm, res)
				}
			}
			for _, dyn := range []bool{false, true} {
				for _, comm := range []bool{false, true} {
					plain := results[fmt.Sprintf("dynamic=%v/comm=%v/traced=false", dyn, comm)]
					traced := results[fmt.Sprintf("dynamic=%v/comm=%v/traced=true", dyn, comm)]
					if plain != traced {
						t.Errorf("%s P=%d dynamic=%v comm=%v: probe changed the result: %+v vs %+v",
							gname, np, dyn, comm, traced, plain)
					}
				}
				compute := results[fmt.Sprintf("dynamic=%v/comm=false/traced=false", dyn)]
				charged := results[fmt.Sprintf("dynamic=%v/comm=true/traced=false", dyn)]
				zero := Simulate(tasks, np, SimOptions{Dynamic: dyn, Vol: vol, Msgs: msgs})
				if zero != compute {
					t.Errorf("%s P=%d dynamic=%v: zero CommModel %+v != compute-only %+v", gname, np, dyn, zero, compute)
				}
				// Static start times are monotone in the durations; the
				// dynamic queue may reorder, so only static is a theorem.
				if !dyn && charged.Makespan < compute.Makespan {
					t.Errorf("%s P=%d: charging communication shortened the static span: %d < %d",
						gname, np, charged.Makespan, compute.Makespan)
				}
				if charged.TotalWork != compute.TotalWork+charged.Comm {
					t.Errorf("%s P=%d dynamic=%v: TotalWork %d != compute %d + Comm %d",
						gname, np, dyn, charged.TotalWork, compute.TotalWork, charged.Comm)
				}
			}
		}
	}
}

// TestSimulateZeroCommCopiesNothing pins the cost contract behind
// Plan.Makespan: the task slice is always simulated in place, so the run
// allocates no per-task copy, and a CommModel adds only its cost vector.
func TestSimulateZeroCommCopiesNothing(t *testing.T) {
	p := buildPipe(gen.Lap30(), 25, 4)
	tasks := columnTasks(p.f, p.ops, p.ew, 4)
	vol := make([]int64, len(tasks))
	perRun := func(o SimOptions) float64 {
		return testing.AllocsPerRun(5, func() { Simulate(tasks, 4, o) })
	}
	plain, zero := perRun(SimOptions{}), perRun(SimOptions{Vol: vol, Msgs: vol})
	if plain != zero {
		t.Errorf("zero CommModel allocates %v times, compute-only %v", zero, plain)
	}
	if charged := perRun(SimOptions{Comm: CommModel{Alpha: 1}, Vol: vol}); charged != plain+1 {
		t.Errorf("charged run allocates %v times, want the compute-only %v + the comm vector",
			charged, plain)
	}
}

// TestSimulateRejectsMisalignedFetchStats: a Vol or Msgs slice that does
// not align with the tasks, and a non-positive P, are caller bugs that
// die at the entry point with the package prefix, not as a bare runtime
// index panic inside the inflation loop.
func TestSimulateRejectsMisalignedFetchStats(t *testing.T) {
	tasks := slackDAG()
	ok := make([]int64, len(tasks))
	cm := CommModel{Alpha: 1, Beta: 1}
	for _, c := range []struct {
		name string
		p    int
		o    SimOptions
		want string
	}{
		{"short vol", 2, SimOptions{Comm: cm, Vol: ok[:1], Msgs: ok}, "exec: 1 fetch volumes for 3 tasks"},
		{"long msgs", 2, SimOptions{Comm: cm, Vol: ok, Msgs: append(ok, 0)}, "exec: 4 message counts for 3 tasks"},
		{"short vol, zero model", 2, SimOptions{Vol: ok[:2]}, "exec: 2 fetch volumes for 3 tasks"},
		{"empty non-nil vol", 2, SimOptions{Comm: cm, Vol: []int64{}}, "exec: 0 fetch volumes for 3 tasks"},
		{"zero procs", 0, SimOptions{}, "exec: invalid processor count 0"},
		{"zero procs dynamic", 0, SimOptions{Dynamic: true}, "exec: invalid processor count 0"},
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.HasPrefix(msg, c.want) {
					t.Errorf("%s: panic %q, want prefix %q", c.name, msg, c.want)
				}
			}()
			Simulate(tasks, c.p, c.o)
		}()
	}
}
