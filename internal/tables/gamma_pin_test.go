package tables

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/strategy"
)

// TestZeroGammaBitIdentity pins the comm-aware makespans — the 1D wrap
// plan and the 2D rect2dcyclic plan through Plan.Simulate, static and
// dynamic, and exec.Simulate called directly on the 2D plan's tile-segment
// tasks — on BUS1138 at P in {1, 4, 16} against the values the
// two-parameter CommModel produced before the Gamma overhead term existed.
// A zero Gamma must charge exactly nothing, so these numbers can never
// move.
func TestZeroGammaBitIdentity(t *testing.T) {
	p, err := LoadProblem(gen.Suite()[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Meta.Name != "BUS1138" {
		t.Fatalf("suite matrix 0 is %s, goldens were pinned on BUS1138", p.Meta.Name)
	}
	cm := exec.CommModel{Alpha: 2, Beta: 10, Gamma: 0}
	opts := strategy.Options{}
	// Pre-Gamma goldens: P, wrap comm static/dynamic, rect2dcyclic comm
	// static/dynamic, exec.Simulate static/dynamic over the same
	// tile-segment tasks.
	golden := [][7]int64{
		{1, 33340, 33340, 33340, 33340, 33340, 33340},
		{4, 37349, 28467, 32812, 23009, 32812, 23009},
		{16, 46468, 44338, 34172, 19794, 34172, 19794},
	}
	for _, g := range golden {
		np := int(g[0])
		p1, err := p.An.Plan("wrap", np, opts)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := p.An.Plan2D("rect2dcyclic", np, opts)
		if err != nil {
			t.Fatal(err)
		}
		static := exec.SimOptions{Comm: cm}
		dynamic := exec.SimOptions{Comm: cm, Dynamic: true}
		direct := exec.SimOptions{Comm: cm, Vol: p2.Fetch.Vol, Msgs: p2.Fetch.Msgs}
		directDyn := direct
		directDyn.Dynamic = true
		got := [6]int64{
			p1.Simulate(static).Makespan,
			p1.Simulate(dynamic).Makespan,
			p2.Simulate(static).Makespan,
			p2.Simulate(dynamic).Makespan,
			exec.Simulate(p2.Tasks, np, direct).Makespan,
			exec.Simulate(p2.Tasks, np, directDyn).Makespan,
		}
		for k, want := range g[1:] {
			if got[k] != want {
				t.Errorf("P=%d simulator %d: makespan %d, pre-Gamma golden %d", np, k, got[k], want)
			}
		}
		// A positive Gamma must strictly lengthen every span (each task
		// pays the overhead, so even P=1 chains grow).
		static.Comm.Gamma, dynamic.Comm.Gamma = 7, 7
		if s := p2.Simulate(static).Makespan; s <= got[2] {
			t.Errorf("P=%d: Gamma=7 static 2D span %d not above zero-Gamma %d", np, s, got[2])
		}
		if s := p1.Simulate(dynamic).Makespan; s <= got[1] {
			t.Errorf("P=%d: Gamma=7 dynamic 1D span %d not above zero-Gamma %d", np, s, got[1])
		}
	}
}
