package part2d

// Probe regression for the 2D tile-segment task graphs: tracing must not
// perturb any of the four simulator variants, and the degenerate-geometry edge
// cases (P far above the tile count) must keep Idle non-negative and
// Efficiency within (0, 1].

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/strategy"
)

// simulate runs exec.Simulate over s2's merged tile-segment task graph
// with s2's own fetch attribution in o.Vol/o.Msgs — the test-side spelling
// of what pipeline.Plan.Simulate does with a 2D plan's Tasks and Fetch.
func simulate(sys *strategy.Sys, s2 *Schedule2D, o exec.SimOptions) exec.SimResult {
	tasks, elemTask := Tasks(sys.Ops, sys.ElemWork, s2)
	tc := FetchStats(sys.Ops, s2, len(tasks), elemTask)
	o.Vol, o.Msgs = tc.Vol, tc.Msgs
	return exec.Simulate(tasks, s2.P, o)
}

// simulate1D is simulate for a 1D schedule of the strategy registry.
func simulate1D(sys *strategy.Sys, opts strategy.Options, sc *sched.Schedule, o exec.SimOptions) exec.SimResult {
	tc := strategy.FetchStats(sys, opts, sc)
	o.Vol, o.Msgs = tc.Vol, tc.Msgs
	return exec.Simulate(strategy.Tasks(sys, opts, sc), sc.P, o)
}

// simKinds are the four untraced simulator variants ({static, dynamic} x
// {compute, comm}) under one CommModel.
func simKinds(cm exec.CommModel) map[string]exec.SimOptions {
	return map[string]exec.SimOptions{
		"static":      {},
		"dynamic":     {Dynamic: true},
		"comm":        {Comm: cm},
		"commdynamic": {Dynamic: true, Comm: cm},
	}
}

// TestProbe2DBitIdentity: every native 2D mapper at P in {1, 4, 16} on
// LAP30 returns bit-identical SimResults untraced and with a Tracer
// attached, for all four simulator variants; the event stream
// covers every merged tile-segment task exactly once and satisfies the
// duration and stall/cause invariants.
func TestProbe2DBitIdentity(t *testing.T) {
	sys := lapSys(t)
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	for _, name := range []string{"rect2d", "rect2dcyclic", "rect2dlpt"} {
		for _, p := range []int{1, 4, 16} {
			s2, err := Map2D(name, sys, p, strategy.Options{})
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			tasks, _ := Tasks(sys.Ops, sys.ElemWork, s2)
			ntasks := len(tasks)
			for kind, o := range simKinds(cm) {
				label := fmt.Sprintf("%s P=%d %s", name, p, kind)
				want := simulate(sys, s2, o)
				tr := obs.NewTracer()
				o.Probe = tr
				if got := simulate(sys, s2, o); got != want {
					t.Errorf("%s: traced %+v != untraced %+v", label, got, want)
				}
				if len(tr.Events) != ntasks {
					t.Errorf("%s: %d events for %d tasks", label, len(tr.Events), ntasks)
					continue
				}
				var total int64
				for _, ev := range tr.Events {
					if ev.Proc < 0 || int(ev.Proc) >= p {
						t.Fatalf("%s: task %d on processor %d of %d", label, ev.Task, ev.Proc, p)
					}
					if ev.Finish-ev.Start != ev.Work+ev.Comm {
						t.Fatalf("%s: task %d duration %d != work %d + comm %d",
							label, ev.Task, ev.Finish-ev.Start, ev.Work, ev.Comm)
					}
					if (ev.Stall > 0) != (ev.Cause >= 0) {
						t.Fatalf("%s: task %d stall %d with cause %d", label, ev.Task, ev.Stall, ev.Cause)
					}
					total += ev.Work + ev.Comm
				}
				if total != want.TotalWork {
					t.Errorf("%s: event durations sum to %d, TotalWork %d", label, total, want.TotalWork)
				}
			}
		}
	}
}

// TestMakespan2DDegenerateGeometry pins the SimResult edge cases on the
// 2D side: with far more processors than tiles (a 3x3 grid on P=16) every
// simulator must keep Idle = P*Makespan - TotalWork non-negative and
// Efficiency in (0, 1]; tracing the runs stays bit-identical.
func TestMakespan2DDegenerateGeometry(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(3, 3))
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	const p = 16
	for _, name := range []string{"rect2d", "rect2dcyclic", "rect2dlpt"} {
		s2, err := Map2D(name, sys, p, strategy.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for kind, o := range simKinds(cm) {
			res := simulate(sys, s2, o)
			if res.Idle < 0 {
				t.Errorf("%s %s: negative idle %d", name, kind, res.Idle)
			}
			if res.Efficiency <= 0 || res.Efficiency > 1 {
				t.Errorf("%s %s: efficiency %g outside (0, 1]", name, kind, res.Efficiency)
			}
			if res.Makespan > 0 && res.Idle != int64(res.P)*res.Makespan-res.TotalWork {
				t.Errorf("%s %s: idle %d != P*Makespan - TotalWork = %d",
					name, kind, res.Idle, int64(res.P)*res.Makespan-res.TotalWork)
			}
		}
	}
}
