package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/part2d"
	"repro/internal/strategy"
	"repro/internal/symbolic"
)

// simCube enumerates the {static, dynamic} x {compute, comm} half of the
// SimOptions cube under one CommModel; the traced half is each entry with
// a probe attached.
func simCube(cm exec.CommModel) []exec.SimOptions {
	return []exec.SimOptions{
		{},
		{Dynamic: true},
		{Comm: cm},
		{Dynamic: true, Comm: cm},
	}
}

// checkPlanSimulate runs the whole cube on one plan: a probe never changes
// a result and sees every task once; a zero CommModel is the compute-only
// run; Plan.Simulate is exec.Simulate on the plan's Tasks with the plan's
// Fetch; Makespan and MakespanComm are its two fixed spellings; the fetch
// volumes partition the traffic total.
func checkPlanSimulate(t *testing.T, label string, pl *Plan, cm exec.CommModel) {
	t.Helper()
	for _, o := range simCube(cm) {
		tag := fmt.Sprintf("%s dynamic=%v comm=%v", label, o.Dynamic, o.Comm != (exec.CommModel{}))
		want := pl.Simulate(o)
		direct := o
		direct.Vol, direct.Msgs = pl.Fetch.Vol, pl.Fetch.Msgs
		if got := exec.Simulate(pl.Tasks, pl.P, direct); got != want {
			t.Errorf("%s: exec.Simulate on the plan's Tasks and Fetch %+v != Plan.Simulate %+v", tag, got, want)
		}
		tr := obs.NewTracer()
		traced := o
		traced.Probe = tr
		if got := pl.Simulate(traced); got != want {
			t.Errorf("%s: traced %+v != untraced %+v", tag, got, want)
		}
		if len(tr.Events) != len(pl.Tasks) {
			t.Errorf("%s: %d events for %d tasks", tag, len(tr.Events), len(pl.Tasks))
		}
		if o.Comm == (exec.CommModel{}) {
			// The plan always attaches its Fetch; under a zero model that
			// must be the run with no fetch stats at all.
			if got := exec.Simulate(pl.Tasks, pl.P, exec.SimOptions{Dynamic: o.Dynamic}); got != want || got.Comm != 0 {
				t.Errorf("%s: zero CommModel over the plan's Fetch %+v != compute-only %+v", tag, want, got)
			}
		}
		// Caller-supplied Vol/Msgs never override the plan's attribution.
		bogus := o
		bogus.Vol = make([]int64, len(pl.Tasks))
		if got := pl.Simulate(bogus); got != want {
			t.Errorf("%s: caller Vol leaked into Plan.Simulate: %+v != %+v", tag, got, want)
		}
	}
	if got, want := pl.Makespan(), pl.Simulate(exec.SimOptions{}); got != want {
		t.Errorf("%s: Makespan %+v != Simulate(SimOptions{}) %+v", label, got, want)
	}
	if got, want := pl.MakespanComm(cm), pl.Simulate(exec.SimOptions{Comm: cm}); got != want {
		t.Errorf("%s: MakespanComm %+v != Simulate(Comm) %+v", label, got, want)
	}
	if got, want := pl.TrafficTotal(), pl.Traffic().Total; got != want {
		t.Errorf("%s: TrafficTotal %d != Traffic().Total %d", label, got, want)
	}
}

// TestPlanSimulateVariants is the one table over the plan layer: every
// registered 1D strategy and 2D mapper on the suite at P in {1, 4, 16}
// through all eight SimOptions combinations, and every col2d lift against
// the 1D plan it lifts (same results, bit for bit, in every variant).
func TestPlanSimulateVariants(t *testing.T) {
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	opts := strategy.Options{}
	suite := gen.Suite()
	if testing.Short() {
		suite = suite[3:4] // LAP30
	}
	for _, tm := range suite {
		an, err := NewAnalysis(tm.Build())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4, 16} {
			for _, name := range strategy.Names() {
				pl, err := an.Plan(name, p, opts)
				if err != nil {
					t.Fatalf("%s %s P=%d: %v", tm.Name, name, p, err)
				}
				checkPlanSimulate(t, fmt.Sprintf("%s %s P=%d", tm.Name, name, p), pl, cm)
				if pl.Traffic2D() != nil {
					t.Errorf("%s %s P=%d: a 1D plan has no tile traffic", tm.Name, name, p)
				}
			}
			for _, name := range part2d.Names2D() {
				if name == "col2d" {
					continue // every base below
				}
				pl, err := an.Plan2D(name, p, opts)
				if err != nil {
					t.Fatalf("%s %s P=%d: %v", tm.Name, name, p, err)
				}
				checkPlanSimulate(t, fmt.Sprintf("%s %s P=%d", tm.Name, name, p), pl, cm)
				if t2 := pl.Traffic2D(); t2.TotalFanOut()+t2.TotalFanIn() != pl.TrafficTotal() {
					t.Errorf("%s %s P=%d: fan-out %d + fan-in %d != TrafficTotal %d",
						tm.Name, name, p, t2.TotalFanOut(), t2.TotalFanIn(), pl.TrafficTotal())
				}
			}
			for _, base := range part2d.LiftBases() {
				lift, err := an.Plan2D("col2d", p, strategy.Options{Base: base})
				if err != nil {
					t.Fatalf("%s col2d:%s P=%d: %v", tm.Name, base, p, err)
				}
				flat, err := an.Plan(base, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range simCube(cm) {
					if got, want := lift.Simulate(o), flat.Simulate(o); got != want {
						t.Errorf("%s col2d:%s P=%d dynamic=%v comm=%v: lift %+v != 1D plan %+v",
							tm.Name, base, p, o.Dynamic, o.Comm != (exec.CommModel{}), got, want)
					}
				}
				if got, want := lift.Traffic2D().Total, flat.TrafficTotal(); got != want {
					t.Errorf("%s col2d:%s P=%d: lifted traffic %d != 1D %d", tm.Name, base, p, got, want)
				}
			}
		}
	}
}

// TestPlanSimulateChargesOwnFetch pins what "charges its own Fetch" means
// on a relaxed block plan, where the partition's structure is a padded
// superset of the analysis factor: the volumes Simulate prices are those of
// the relaxed structure — they sum to Plan.Traffic — and the communication
// time charged is exactly their cost.
func TestPlanSimulateChargesOwnFetch(t *testing.T) {
	a := gen.Lap30()
	perm, err := symbolic.PostOrderPerm(a, order.MMD(a))
	if err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalysisOrdered(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	opts := strategy.Options{Part: core.Options{Grain: 25, RelaxZeros: 0.1}}
	if an.sys.Partition(opts.Part).Relax.Merges == 0 {
		t.Fatal("fixture is not relaxed")
	}
	pl, err := an.Plan("block", 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pl.TrafficTotal(), pl.Traffic().Total; got != want {
		t.Errorf("relaxed plan: fetch volumes sum to %d, Traffic().Total %d", got, want)
	}
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	var want int64
	for i := range pl.Tasks {
		want += cm.Cost(pl.Fetch.Vol[i], pl.Fetch.Msgs[i])
	}
	if got := pl.Simulate(exec.SimOptions{Comm: cm}).Comm; got != want {
		t.Errorf("relaxed plan: Simulate charged %d comm units, the plan's Fetch costs %d", got, want)
	}
}

// TestPlanMeasure: Measure times the plan's compiled program against the
// serial kernel on the caller's (unpermuted) matrix, for 2D plans,
// column-granular and block-granular 1D plans and both kernels; its events
// pair with the plan's Tasks, and its factor is the serial one bit for
// bit. A foreign pattern is refused.
func TestPlanMeasure(t *testing.T) {
	a := gen.Grid9(8, 8)
	an, err := NewAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	wrap, err := an.Plan("wrap", 4, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := an.Plan2D("rect2dcyclic", 4, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	block, err := an.Plan("block", 4, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []*Plan{wrap, tiles, block} {
		for _, k := range []Kernel{Cholesky, LDL} {
			mes, err := pl.Measure(a, exec.MeasureOptions{Kernel: k, Repeats: 2})
			if err != nil {
				t.Fatalf("%s %s: %v", pl.Strategy, k, err)
			}
			if mes.P != pl.P || mes.Repeats != 2 || len(mes.Events) != len(pl.Tasks) {
				t.Fatalf("%s %s: P=%d repeats=%d events=%d, want %d/2/%d",
					pl.Strategy, k, mes.P, mes.Repeats, len(mes.Events), pl.P, len(pl.Tasks))
			}
			for i, ev := range mes.Events {
				if int(ev.Task) != i || ev.Proc != pl.Tasks[i].Proc {
					t.Fatalf("%s %s: event %d is task %d on %d, plan task on %d",
						pl.Strategy, k, i, ev.Task, ev.Proc, pl.Tasks[i].Proc)
				}
			}
			serial, err := pl.Factorize(a, k)
			if err != nil {
				t.Fatal(err)
			}
			bitEqual(t, mes.Factor.Val, serial.Val, pl.Strategy+" "+k.String()+" measured factor")
		}
	}
	if _, err := wrap.Measure(gen.Grid9(8, 9), exec.MeasureOptions{}); err == nil {
		t.Error("foreign pattern: expected an error")
	}
}

// TestMeasureSplitColumns: wrap at P = 2 splits columns whose last source
// is the other worker's into two tasks, and Measure still reports one
// event per plan task, on the task's own worker, that obs.RealProfile
// aggregates. A worker runs its tasks one after another and each half
// adds its busy time to Work and the gap before it to Stall, so on every
// worker Σ (Work + Stall) over the folded events is the worker's last
// finish exactly: no half is lost or counted twice.
func TestMeasureSplitColumns(t *testing.T) {
	a := gen.Grid9(60, 60)
	an, err := NewAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := an.Plan("wrap", 2, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := pl.program()
	if err != nil {
		t.Fatal(err)
	}
	if pg.Tasks() <= len(pl.Tasks) {
		t.Fatalf("program runs %d tasks for %d plan tasks: no column split", pg.Tasks(), len(pl.Tasks))
	}
	for _, k := range []Kernel{Cholesky, LDL} {
		mes, err := pl.Measure(a, exec.MeasureOptions{Kernel: k, Repeats: 2})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if len(mes.Events) != len(pl.Tasks) {
			t.Fatalf("%s: %d events for %d plan tasks", k, len(mes.Events), len(pl.Tasks))
		}
		var busy, spent, last [2]int64
		for i, ev := range mes.Events {
			if int(ev.Task) != i || ev.Proc != pl.Tasks[i].Proc {
				t.Fatalf("%s: event %d is task %d on %d, plan task on %d", k, i, ev.Task, ev.Proc, pl.Tasks[i].Proc)
			}
			if ev.Work < 0 || ev.Stall < 0 || ev.Work > ev.Finish-ev.Start {
				t.Fatalf("%s: malformed event %+v", k, ev)
			}
			busy[ev.Proc] += ev.Work
			spent[ev.Proc] += ev.Work + ev.Stall
			last[ev.Proc] = max(last[ev.Proc], ev.Finish)
		}
		if spent != last {
			t.Fatalf("%s: per-worker work + stall %v, last finishes %v", k, spent, last)
		}
		prof, err := obs.RealProfile(mes.Events, pl.P)
		if err != nil {
			t.Fatalf("%s: real profile: %v", k, err)
		}
		for w, pp := range prof.Procs {
			if pp.Busy != busy[w] {
				t.Fatalf("%s: worker %d profile busy %d, events %d", k, w, pp.Busy, busy[w])
			}
		}
	}
}
