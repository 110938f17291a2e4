package strategy

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

// TestSubcubeOwnersBalancedTree pins the mapper's defining behavior on a
// hand-built balanced forest: with two equal subtrees and two processors,
// each subtree becomes wholly local to one processor and the shared top
// separator chain is wrap-mapped across both.
func TestSubcubeOwnersBalancedTree(t *testing.T) {
	// Tree (parent pointers): 6 is the root, 5 its only child (separator
	// chain), with two equal subtrees {0,1->2} and {3,4->... } hanging off 5:
	//
	//        6
	//        |
	//        5
	//       / \
	//      2   4
	//     /|   |\
	//    0 1   3 7... (kept symmetric: 0,1 under 2; 3,7 under 4)
	parent := []int{2, 2, 5, 4, 5, 6, -1, 4}
	work := []int64{1, 1, 1, 1, 1, 1, 1, 1}
	own := subcubeOwners(parent, work, 2)
	// Separator chain 6, 5 wraps across {0, 1}.
	if own[6] == own[5] {
		t.Errorf("separator chain not wrap-mapped: own[6]=%d own[5]=%d", own[6], own[5])
	}
	// Each subtree is local to a single processor, and the two subtrees
	// use distinct processors.
	left := map[int32]bool{own[2]: true, own[0]: true, own[1]: true}
	right := map[int32]bool{own[4]: true, own[3]: true, own[7]: true}
	if len(left) != 1 || len(right) != 1 {
		t.Fatalf("subtrees not local: left owners %v, right owners %v", left, right)
	}
	if own[2] == own[4] {
		t.Errorf("sibling subtrees share processor %d", own[2])
	}
	for j, o := range own {
		if o < 0 || o >= 2 {
			t.Fatalf("column %d owned by out-of-range processor %d", j, o)
		}
	}
}

// TestSubcubeOwnersMoreSubtreesThanProcs covers the packing fallback:
// with more sibling subtrees than processors every column still gets an
// owner in range and every processor receives work (LPT packing of whole
// subtrees).
func TestSubcubeOwnersMoreSubtreesThanProcs(t *testing.T) {
	// A forest of five independent chains with unequal weights.
	parent := []int{-1, 0, -1, 2, -1, 4, -1, 6, -1, 8}
	work := []int64{5, 5, 4, 4, 3, 3, 2, 2, 1, 1}
	const p = 2
	own := subcubeOwners(parent, work, p)
	load := make([]int64, p)
	for j, o := range own {
		if o < 0 || o >= p {
			t.Fatalf("column %d owned by out-of-range processor %d", j, o)
		}
		load[o] += work[j]
		// Chains must stay whole: child and parent share an owner.
		if pr := parent[j]; pr != -1 && own[pr] != o {
			t.Errorf("chain split: own[%d]=%d but own[parent=%d]=%d", j, o, pr, own[pr])
		}
	}
	for k, l := range load {
		if l == 0 {
			t.Errorf("processor %d received no work under LPT packing", k)
		}
	}
}

// TestSubcubeOwnersInvalidProcs: the exported helper rejects p < 1 with
// a clear panic, like the sched mappers, instead of a cryptic
// divide-by-zero deep in the recursion.
func TestSubcubeOwnersInvalidProcs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("subcubeOwners(p=0) did not panic")
		}
	}()
	subcubeOwners([]int{-1}, []int64{1}, 0)
}

// TestSubcubeConservation mirrors the cross-strategy comm harness
// explicitly for subcube on the grid and HB fixtures: per-task fetch
// volumes partition the traffic total, and a zero CommModel reproduces
// the compute-only simulators bit for bit.
func TestSubcubeConservation(t *testing.T) {
	for mname, m := range commFixtures(t) {
		sys := newTestSys(t, m)
		for _, p := range []int{2, 4, 16} {
			sc, err := Map("subcube", sys, p, Options{})
			if err != nil {
				t.Fatalf("%s P=%d: %v", mname, p, err)
			}
			checkSchedule(t, sys, sc, "subcube/"+mname, p)
			tc := FetchStats(sys, Options{}, sc)
			if got, want := tc.TotalVol(), Traffic(sys, Options{}, sc).Total; got != want {
				t.Errorf("%s P=%d: fetch volumes sum to %d, traffic total %d", mname, p, got, want)
			}
			var zero exec.CommModel
			if got, want := simulate(sys, Options{}, sc, exec.SimOptions{Comm: zero}), simulate(sys, Options{}, sc, exec.SimOptions{}); got != want {
				t.Errorf("%s P=%d static: zero model %+v != compute-only %+v", mname, p, got, want)
			}
			if got, want := simulate(sys, Options{}, sc, exec.SimOptions{Dynamic: true, Comm: zero}), simulate(sys, Options{}, sc, exec.SimOptions{Dynamic: true}); got != want {
				t.Errorf("%s P=%d dynamic: zero model %+v != compute-only %+v", mname, p, got, want)
			}
		}
	}
}

// TestSubcubeLocalityLAP30 locks the paper's locality claim for the
// elimination-tree-aware mapping on the LAP30 fixture: at large P the
// subtree-to-subcube assignment both fetches far less data than wrap and
// achieves a unified comm-aware dynamic span no worse than wrap's — the
// regime where "the savings in communication more than offset the
// disadvantage of load imbalance".
func TestSubcubeLocalityLAP30(t *testing.T) {
	sys := newTestSys(t, gen.Lap30())
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	for _, p := range []int{16, 32} {
		var span, tr = map[string]int64{}, map[string]*traffic.Result{}
		for _, name := range []string{"subcube", "wrap"} {
			sc, err := Map(name, sys, p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			span[name] = simulate(sys, Options{}, sc, exec.SimOptions{Dynamic: true, Comm: cm}).Makespan
			tr[name] = Traffic(sys, Options{}, sc)
		}
		if span["subcube"] > span["wrap"] {
			t.Errorf("P=%d: subcube unified span %d > wrap %d", p, span["subcube"], span["wrap"])
		}
		if tr["subcube"].Total >= tr["wrap"].Total {
			t.Errorf("P=%d: subcube traffic %d >= wrap %d, want a clear locality win",
				p, tr["subcube"].Total, tr["wrap"].Total)
		}
	}
}

// TestSubcubeAsRefineBase: the mapper composes with the refine strategy
// like any other base, and the imbalance objective repairs the
// subtree-to-subcube trade-off (its known weakness) without touching the
// total work.
func TestSubcubeAsRefineBase(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(10, 10))
	const p = 8
	opts := Options{Base: "subcube"}
	baseSc, err := Map("subcube", sys, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Map("refine", sys, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.MaxWork() > baseSc.MaxWork() {
		t.Errorf("refine(subcube): MaxWork %d > base %d", ref.MaxWork(), baseSc.MaxWork())
	}
	if model.TotalWork(ref.Work) != model.TotalWork(baseSc.Work) {
		t.Errorf("refine(subcube): total work changed %d -> %d", model.TotalWork(baseSc.Work), model.TotalWork(ref.Work))
	}
	checkSchedule(t, sys, ref, "refine/subcube", p)
}

// TestSubcubeNDOrderLAP30 is the ordering-aware regression: under a
// nested-dissection ordering — where the elimination tree's separators
// are explicit, the regime subtree-to-subcube mapping was designed for —
// the subcube unified comm-aware dynamic span stays at or below wrap's on
// LAP30 at P in {16, 32}, and its data traffic stays strictly below
// (independent subtrees of the dissection never share owners).
func TestSubcubeNDOrderLAP30(t *testing.T) {
	a := gen.Lap30()
	perm := order.NestedDissection(a, 0)
	pm, err := a.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSys(symbolic.Analyze(pm), nil, nil)
	cm := exec.CommModel{Alpha: 2, Beta: 10}
	for _, p := range []int{16, 32} {
		span := map[string]int64{}
		tr := map[string]int64{}
		for _, name := range []string{"subcube", "wrap"} {
			sc, err := Map(name, sys, p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkSchedule(t, sys, sc, name+"/ndorder", p)
			span[name] = simulate(sys, Options{}, sc, exec.SimOptions{Dynamic: true, Comm: cm}).Makespan
			tr[name] = Traffic(sys, Options{}, sc).Total
		}
		if span["subcube"] > span["wrap"] {
			t.Errorf("NDOrder P=%d: subcube unified span %d > wrap %d", p, span["subcube"], span["wrap"])
		}
		if tr["subcube"] >= tr["wrap"] {
			t.Errorf("NDOrder P=%d: subcube traffic %d >= wrap %d", p, tr["subcube"], tr["wrap"])
		}
	}
}
