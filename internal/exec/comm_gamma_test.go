package exec

import "testing"

// TestGammaCost pins the per-task overhead semantics of CommModel.Gamma:
// Cost charges exactly int64(Gamma) on top of the two comm terms, a
// zero-Gamma model reproduces the two-parameter formula bit for bit, and
// IsZero only reports a model that charges nothing at all.
func TestGammaCost(t *testing.T) {
	two := CommModel{Alpha: 2, Beta: 10}
	withZero := CommModel{Alpha: 2, Beta: 10, Gamma: 0}
	for _, c := range []struct{ vol, msgs int64 }{{0, 0}, {10, 2}, {1000, 50}} {
		if got, want := withZero.Cost(c.vol, c.msgs), two.Cost(c.vol, c.msgs); got != want {
			t.Errorf("Cost(%d, %d) with Gamma=0: %d, want two-parameter %d", c.vol, c.msgs, got, want)
		}
		over := CommModel{Alpha: 2, Beta: 10, Gamma: 7}
		if got, want := over.Cost(c.vol, c.msgs), two.Cost(c.vol, c.msgs)+7; got != want {
			t.Errorf("Cost(%d, %d) with Gamma=7: %d, want %d", c.vol, c.msgs, got, want)
		}
	}
	// Gamma truncates to integer work units like Alpha and Beta terms do.
	if got := (CommModel{Gamma: 3.9}).Cost(0, 0); got != 3 {
		t.Errorf("Cost with Gamma=3.9: %d, want 3", got)
	}
	if !(CommModel{}).IsZero() {
		t.Error("zero model: IsZero() = false")
	}
	if (CommModel{Gamma: 1}).IsZero() {
		t.Error("Gamma-only model: IsZero() = true")
	}
}

// TestGammaInflation checks that the cost vector charges the fixed
// overhead to every task — including tasks with no communication at all —
// that the comm total grows by exactly ntasks * Gamma, and that the
// simulators run a Gamma model as the hand-inflated tasks.
func TestGammaInflation(t *testing.T) {
	tasks := []Task{
		{ID: 0, Work: 5},
		{ID: 1, Work: 3, Preds: []int32{0}},
		{ID: 2, Work: 8, Preds: []int32{0}},
	}
	vol := []int64{0, 4, 0}
	msgs := []int64{0, 1, 0}
	base := CommModel{Alpha: 2, Beta: 10}
	over := CommModel{Alpha: 2, Beta: 10, Gamma: 6}
	b, bcomm := commCosts(len(tasks), base, vol, msgs)
	o, ocomm := commCosts(len(tasks), over, vol, msgs)
	for i := range tasks {
		if o[i] != b[i]+6 {
			t.Errorf("task %d: cost %d, want %d + Gamma 6", i, o[i], b[i])
		}
	}
	if ocomm != bcomm+6*int64(len(tasks)) {
		t.Errorf("comm total %d, want %d + ntasks*Gamma %d", ocomm, bcomm, 6*int64(len(tasks)))
	}
	// Gamma-only models are charged even with nil vol/msgs vectors.
	g, gcomm := commCosts(len(tasks), CommModel{Gamma: 2}, nil, nil)
	for i := range tasks {
		if g[i] != 2 {
			t.Errorf("task %d: Gamma-only cost %d, want 2", i, g[i])
		}
	}
	if gcomm != 2*int64(len(tasks)) {
		t.Errorf("Gamma-only comm total %d, want %d", gcomm, 2*int64(len(tasks)))
	}
	checkInflated(t, "Gamma", tasks, 2, SimOptions{Comm: over, Vol: vol, Msgs: msgs})
	checkInflated(t, "Gamma only", tasks, 2, SimOptions{Comm: CommModel{Gamma: 2}})
}
