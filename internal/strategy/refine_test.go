package strategy

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
)

var refineBases = []string{"block", "blockgreedy", "wrap", "contiguous", "blockcyclic", "subcube"}

// TestRefineNeverWorsensImbalance: with the imbalance objective, the
// refined schedule's maximum per-processor work (hence the paper's A)
// never exceeds the base schedule's, for every base strategy.
func TestRefineNeverWorsensImbalance(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(10, 10))
	for _, base := range refineBases {
		for _, p := range []int{4, 16} {
			opts := Options{Base: base}
			baseSc, err := Map(base, sys, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Map("refine", sys, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ref.MaxWork() > baseSc.MaxWork() {
				t.Errorf("refine(%s) P=%d: MaxWork %d > base %d",
					base, p, ref.MaxWork(), baseSc.MaxWork())
			}
			if ref.TotalWork() != baseSc.TotalWork() {
				t.Errorf("refine(%s) P=%d: total work changed %d -> %d",
					base, p, baseSc.TotalWork(), ref.TotalWork())
			}
			checkSchedule(t, sys, ref, "refine/"+base, p)
		}
	}
}

// TestRefineNeverWorsensTraffic: with the traffic objective, the refined
// schedule's simulated traffic never exceeds the base schedule's.
func TestRefineNeverWorsensTraffic(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(10, 10))
	for _, base := range refineBases {
		opts := Options{Base: base, Objective: "traffic"}
		const p = 4
		baseSc, err := Map(base, sys, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Map("refine", sys, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		baseT := Traffic(sys, opts, baseSc).Total
		refT := Traffic(sys, opts, ref).Total
		if refT > baseT {
			t.Errorf("refine(%s, traffic) P=%d: traffic %d > base %d", base, p, refT, baseT)
		}
		checkSchedule(t, sys, ref, "refine-traffic/"+base, p)
	}
}

// TestRefineImprovesBlockImbalance: on a matrix where the block heuristic
// is visibly imbalanced, refinement must actually help, not just not
// hurt.
func TestRefineImprovesBlockImbalance(t *testing.T) {
	sys := newTestSys(t, gen.Lap30())
	const p = 16
	opts := Options{Base: "block"}
	baseSc, err := Map("block", sys, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Map("refine", sys, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Imbalance() >= baseSc.Imbalance() {
		t.Errorf("refine(block) P=%d: imbalance %g did not improve on base %g",
			p, ref.Imbalance(), baseSc.Imbalance())
	}
}

// TestRefineLeavesBaseUntouched: Refine returns a new schedule; the base
// schedule's ownership and work vectors must not change.
func TestRefineLeavesBaseUntouched(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(8, 8))
	const p = 4
	baseSc, err := Map("block", sys, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	work := append([]int64(nil), baseSc.Work...)
	elem := append([]int32(nil), baseSc.ElemProc...)
	unit := append([]int32(nil), baseSc.UnitProc...)
	if _, err := Refine(sys, Options{}, baseSc); err != nil {
		t.Fatal(err)
	}
	for k := range work {
		if baseSc.Work[k] != work[k] {
			t.Fatalf("Refine mutated base Work[%d]", k)
		}
	}
	for q := range elem {
		if baseSc.ElemProc[q] != elem[q] {
			t.Fatalf("Refine mutated base ElemProc[%d]", q)
		}
	}
	for u := range unit {
		if baseSc.UnitProc[u] != unit[u] {
			t.Fatalf("Refine mutated base UnitProc[%d]", u)
		}
	}
}

// TestRefineNeverWorsensCommspan: with the commspan objective, the
// refined schedule's unified comm-aware dynamic span never exceeds the
// base schedule's, for every base strategy — the analogue of the
// imbalance and traffic monotonicity guarantees for the objective that
// minimizes the unified time estimate directly.
func TestRefineNeverWorsensCommspan(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(8, 8))
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	for _, base := range refineBases {
		opts := Options{Base: base, Objective: "commspan", Comm: cm}
		const p = 4
		baseSc, err := Map(base, sys, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Map("refine", sys, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		baseSpan := simulate(sys, opts, baseSc, exec.SimOptions{Dynamic: true, Comm: cm}).Makespan
		refSpan := simulate(sys, opts, ref, exec.SimOptions{Dynamic: true, Comm: cm}).Makespan
		if refSpan > baseSpan {
			t.Errorf("refine(%s, commspan) P=%d: span %d > base %d", base, p, refSpan, baseSpan)
		}
		checkSchedule(t, sys, ref, "refine-commspan/"+base, p)
	}
}

// TestRefineCommspanImproves: on a mapping with scattered communication
// the commspan objective must actually lower the unified span, not just
// not raise it.
func TestRefineCommspanImproves(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(10, 10))
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	opts := Options{Base: "wrap", Objective: "commspan", Comm: cm, MaxMoves: 200}
	const p = 8
	baseSc, err := Map("wrap", sys, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Map("refine", sys, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseSpan := simulate(sys, opts, baseSc, exec.SimOptions{Dynamic: true, Comm: cm}).Makespan
	refSpan := simulate(sys, opts, ref, exec.SimOptions{Dynamic: true, Comm: cm}).Makespan
	if refSpan >= baseSpan {
		t.Errorf("refine(wrap, commspan) P=%d: span %d did not improve on base %d",
			p, refSpan, baseSpan)
	}
}

// TestRefineCommspanZeroModel: with a zero Comm model the commspan
// objective degenerates to minimizing the compute-only dynamic span, and
// the monotonicity guarantee must still hold.
func TestRefineCommspanZeroModel(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(8, 8))
	opts := Options{Base: "wrap", Objective: "commspan"}
	const p = 4
	baseSc, err := Map("wrap", sys, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Map("refine", sys, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, base := simulate(sys, opts, ref, exec.SimOptions{Dynamic: true}).Makespan, simulate(sys, opts, baseSc, exec.SimOptions{Dynamic: true}).Makespan; got > base {
		t.Errorf("refine(wrap, commspan, zero model): dynamic span %d > base %d", got, base)
	}
}

// TestRefineCommspanRefineSchedule covers the public Refine entry point
// (strategy.Refine): refining an existing schedule in place of a
// base-strategy re-run, the unified span never worsens and the input is
// left untouched.
func TestRefineCommspanRefineSchedule(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(8, 8))
	cm := exec.CommModel{Alpha: 1, Beta: 5}
	opts := Options{Objective: "commspan", Comm: cm}
	const p = 4
	baseSc, err := Map("block", sys, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]int32(nil), baseSc.ElemProc...)
	ref, err := Refine(sys, opts, baseSc)
	if err != nil {
		t.Fatal(err)
	}
	if got, base := simulate(sys, opts, ref, exec.SimOptions{Dynamic: true, Comm: cm}).Makespan, simulate(sys, opts, baseSc, exec.SimOptions{Dynamic: true, Comm: cm}).Makespan; got > base {
		t.Errorf("Refine(commspan): span %d > input %d", got, base)
	}
	for q := range before {
		if baseSc.ElemProc[q] != before[q] {
			t.Fatalf("Refine(commspan) mutated its input at element %d", q)
		}
	}
}

func TestRefineErrors(t *testing.T) {
	sys := newTestSys(t, gen.Grid5(4, 4))
	if _, err := Map("refine", sys, 4, Options{Base: "refine"}); err == nil {
		t.Error("refine with itself as base succeeded, want error")
	}
	if _, err := Map("refine", sys, 4, Options{Base: "no-such"}); err == nil {
		t.Error("refine with unknown base succeeded, want error")
	}
	_, err := Map("refine", sys, 4, Options{Objective: "bogus"})
	if err == nil {
		t.Fatal("refine with unknown objective succeeded, want error")
	}
	// The error must advertise the actual objective set (derived from the
	// objective table, not a hardcoded list), so new objectives such as
	// commspan appear automatically.
	for _, want := range Objectives() {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-objective error %q does not list objective %q", err, want)
		}
	}
}
