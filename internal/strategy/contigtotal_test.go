package strategy

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/traffic"
)

// forEachSplit enumerates every contiguous partition of n items into
// exactly p (possibly empty) blocks, invoking fn with the boundary
// vector (length p+1, bounds[0] = 0, bounds[p] = n). The slice is reused
// across calls.
func forEachSplit(n, p int, fn func(bounds []int)) {
	bounds := make([]int, p+1)
	bounds[p] = n
	var rec func(k int)
	rec = func(k int) {
		if k == p {
			if bounds[p-1] <= n {
				fn(bounds)
			}
			return
		}
		for b := bounds[k-1]; b <= n; b++ {
			bounds[k] = b
			rec(k + 1)
		}
	}
	rec(1)
}

func splitMaxWork(work []int64, bounds []int) int64 {
	var m int64
	for k := 0; k+1 < len(bounds); k++ {
		var s int64
		for j := bounds[k]; j < bounds[k+1]; j++ {
			s += work[j]
		}
		if s > m {
			m = s
		}
	}
	return m
}

// randomPattern builds a random sparse symmetric pattern on n vertices:
// a spanning path (so MMD sees one component) plus extra random edges.
func randomPattern(t *testing.T, rng *rand.Rand, n int) *sparse.Matrix {
	t.Helper()
	var edges [][2]int
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{v - 1, v})
	}
	for e := 0; e < n; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			edges = append(edges, [2]int{a, b})
		}
	}
	m, err := sparse.NewPattern(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	m.SetLaplacianValues(0.01)
	return m
}

// TestContigTotalBruteForce verifies the DP against exhaustive
// enumeration on small matrices (n <= 12): among all contiguous splits
// whose bottleneck stays within the optimal bottleneck B*, the mapper's
// schedule must attain the minimal simulated total traffic — and its own
// DP objective must agree with the traffic simulator on that schedule.
func TestContigTotalBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	matrices := []*sparse.Matrix{
		gen.Grid5(3, 3),
		gen.Grid5(3, 4),
		gen.FEGrid5(2),
	}
	for trial := 0; trial < 12; trial++ {
		matrices = append(matrices, randomPattern(t, rng, 4+rng.Intn(9))) // n in [4, 12]
	}
	for mi, m := range matrices {
		sys := newTestSys(t, m)
		n := sys.F.N
		if n > 12 {
			t.Fatalf("matrix %d: n = %d, want <= 12 for brute force", mi, n)
		}
		work := sys.ColumnWork()
		for _, p := range []int{1, 2, 3, 4} {
			bstar := OptimalBottleneck(work, p)
			best := int64(-1)
			forEachSplit(n, p, func(bounds []int) {
				if splitMaxWork(work, bounds) > bstar {
					return
				}
				sc := columnSchedule(sys, p, ownersFromBounds(n, bounds))
				if tr := Traffic(sys, Options{}, sc).Total; best < 0 || tr < best {
					best = tr
				}
			})
			sc, err := Map("contigtotal", sys, p, Options{})
			if err != nil {
				t.Fatalf("matrix %d P=%d: %v", mi, p, err)
			}
			got := Traffic(sys, Options{}, sc).Total
			if got != best {
				t.Errorf("matrix %d P=%d: contigtotal traffic %d, exhaustive optimum %d",
					mi, p, got, best)
			}
			if mw := sc.MaxWork(); mw > bstar {
				t.Errorf("matrix %d P=%d: contigtotal bottleneck %d exceeds B* %d", mi, p, mw, bstar)
			}
			// The DP's internal objective must equal the simulator's total
			// on the split it returns (oracle consistency).
			refs := traffic.ColumnRefs(sys.Ops)
			bounds := ContiguousSplitTotal(work, refs, p, bstar, 0)
			sc2 := columnSchedule(sys, p, ownersFromBounds(n, bounds))
			if tr := Traffic(sys, Options{}, sc2).Total; tr != got {
				t.Errorf("matrix %d P=%d: helper split traffic %d, mapper traffic %d", mi, p, tr, got)
			}
		}
	}
}

// TestContigTotalLAP30Regression pins the headline property on the
// paper's LAP30 problem: at every P the total-traffic-optimal split
// communicates no more than the bottleneck-optimal one (it minimizes
// over a feasible set containing it), while keeping the same optimal
// bottleneck.
func TestContigTotalLAP30Regression(t *testing.T) {
	sys := newTestSys(t, gen.Lap30())
	work := sys.ColumnWork()
	for _, p := range []int{4, 16, 64} {
		cont, err := Map("contiguous", sys, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tot, err := Map("contigtotal", sys, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ct, tt := Traffic(sys, Options{}, cont).Total, Traffic(sys, Options{}, tot).Total
		if tt > ct {
			t.Errorf("P=%d: contigtotal traffic %d > contiguous %d", p, tt, ct)
		}
		bstar := OptimalBottleneck(work, p)
		if mw := tot.MaxWork(); mw > bstar {
			t.Errorf("P=%d: contigtotal bottleneck %d exceeds B* %d", p, mw, bstar)
		}
	}
}

// TestContigTotalSlackMonotone: widening the work-slack bound enlarges
// the DP's feasible set, so the achieved traffic never increases.
func TestContigTotalSlackMonotone(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(8, 8))
	const p = 8
	prev := int64(-1)
	for _, slack := range []float64{0, 0.1, 0.25, 0.5} {
		sc, err := Map("contigtotal", sys, p, Options{Slack: slack})
		if err != nil {
			t.Fatal(err)
		}
		tr := Traffic(sys, Options{}, sc).Total
		if prev >= 0 && tr > prev {
			t.Errorf("slack %g: traffic %d > traffic at smaller slack %d", slack, tr, prev)
		}
		prev = tr
	}
}

// splitMessages counts the total per-cut messages of a contiguous split:
// for every block, the number of distinct source columns left of its cut
// that some column of the block references — exactly the message term the
// Beta2-weighted DP objective charges.
func splitMessages(refs [][]traffic.ColRef, bounds []int) int64 {
	var msgs int64
	for k := 0; k+1 < len(bounds); k++ {
		lo, hi := bounds[k], bounds[k+1]
		seen := make(map[int32]bool)
		for j := lo; j < hi; j++ {
			for _, r := range refs[j] {
				if int(r.Col) < lo && !seen[r.Col] {
					seen[r.Col] = true
					msgs++
				}
			}
		}
	}
	return msgs
}

// TestContigTotalBeta2Monotonic pins the Beta2 knob's defining property
// on LAP30: raising the message weight never increases the optimal
// split's message count (and with Beta2 = 0 the split is the pure-volume
// optimum, so its volume is minimal). This is the scalarization exchange
// argument — for optima at weights b2 > b1, adding the two optimality
// inequalities forces msgs(b2) <= msgs(b1) — made executable.
func TestContigTotalBeta2Monotonic(t *testing.T) {
	sys := newTestSys(t, gen.Lap30())
	work := sys.ColumnWork()
	refs := traffic.ColumnRefs(sys.Ops)
	const p = 8
	// Work slack widens the feasible set so the DP has real
	// volume/message trades to make (at tight slack the message floor of
	// the feasible set is already reached by the pure-volume optimum).
	bound := OptimalBottleneck(work, p)
	bound += int64(1.0 * float64(bound))
	prevMsgs := int64(-1)
	baseVol := int64(-1)
	for _, beta2 := range []float64{0, 0.5, 2, 10, 100, 1000} {
		bounds := ContiguousSplitTotal(work, refs, p, bound, beta2)
		if bounds == nil {
			t.Fatalf("beta2=%g: no feasible split", beta2)
		}
		sc := columnSchedule(sys, p, ownersFromBounds(sys.F.N, bounds))
		vol := Traffic(sys, Options{}, sc).Total
		msgs := splitMessages(refs, bounds)
		if prevMsgs >= 0 && msgs > prevMsgs {
			t.Errorf("beta2=%g: %d messages > %d at smaller beta2", beta2, msgs, prevMsgs)
		}
		if baseVol < 0 {
			baseVol = vol
		} else if vol < baseVol {
			t.Errorf("beta2=%g: volume %d below the pure-volume optimum %d", beta2, vol, baseVol)
		}
		prevMsgs = msgs
	}
	// The knob must reach a strictly smaller message count somewhere on
	// LAP30, otherwise the test pins nothing.
	b0 := ContiguousSplitTotal(work, refs, p, bound, 0)
	bN := ContiguousSplitTotal(work, refs, p, bound, 1000)
	if m0, mN := splitMessages(refs, b0), splitMessages(refs, bN); mN >= m0 {
		t.Errorf("beta2=1000 did not reduce messages on LAP30: %d vs %d at beta2=0", mN, m0)
	}
}

// TestContigTotalBeta2Mapper covers the Options plumbing: the mapper's
// schedule under a large Beta2 matches the helper's split, and negative
// values select zero (the documented default).
func TestContigTotalBeta2Mapper(t *testing.T) {
	sys := newTestSys(t, gen.Grid9(8, 8))
	const p = 8
	neg, err := Map("contigtotal", sys, p, Options{Beta2: -3})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Map("contigtotal", sys, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for q := range zero.ElemProc {
		if neg.ElemProc[q] != zero.ElemProc[q] {
			t.Fatalf("negative Beta2 changed the schedule at element %d", q)
		}
	}
	refs := traffic.ColumnRefs(sys.Ops)
	high, err := Map("contigtotal", sys, p, Options{Slack: 0.25, Beta2: 500})
	if err != nil {
		t.Fatal(err)
	}
	low, err := Map("contigtotal", sys, p, Options{Slack: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	boundsOf := func(sc *sched.Schedule) []int {
		own := columnOwners(sys.F, sc)
		bounds := []int{0}
		for j := 1; j < sys.F.N; j++ {
			if own[j] != own[j-1] {
				bounds = append(bounds, j)
			}
		}
		return append(bounds, sys.F.N)
	}
	if hm, lm := splitMessages(refs, boundsOf(high)), splitMessages(refs, boundsOf(low)); hm > lm {
		t.Errorf("mapper with Beta2=500 has %d messages > %d at Beta2=0", hm, lm)
	}
}

// TestContiguousSplitTotalInfeasible: a work bound below the heaviest
// single column makes covering impossible; the helper reports that with
// a nil result instead of a malformed split.
func TestContiguousSplitTotalInfeasible(t *testing.T) {
	sys := newTestSys(t, gen.Grid5(3, 3))
	work := sys.ColumnWork()
	refs := traffic.ColumnRefs(sys.Ops)
	var maxCol int64
	for _, w := range work {
		if w > maxCol {
			maxCol = w
		}
	}
	if bounds := ContiguousSplitTotal(work, refs, 3, maxCol-1, 0); bounds != nil {
		t.Errorf("infeasible bound returned %v, want nil", bounds)
	}
}

// TestContigTotalTrials pins the relaxations the DP evaluates on LAP30:
// the transitions between states that k blocks can reach and p-k blocks
// can finish from. Relaxing every (i, j) of the work window in every layer
// took 836 006 / 2 573 448 / 5 426 231 at P = 4 / 16 / 64.
func TestContigTotalTrials(t *testing.T) {
	sys := newTestSys(t, gen.Lap30())
	for _, c := range []struct {
		p      int
		trials int64
	}{{4, 6}, {16, 2224}, {64, 625994}} {
		var tel obs.SearchTelemetry
		if _, err := Map("contigtotal", sys, c.p, Options{Search: &tel}); err != nil {
			t.Fatal(err)
		}
		if tel.Trials != c.trials || tel.Trials != tel.Accepted+tel.Rejected {
			t.Errorf("P=%d: %d trials (%d accepted + %d rejected), want %d", c.p, tel.Trials, tel.Accepted, tel.Rejected, c.trials)
		}
	}
}

// TestContigTotalAllocations pins the flat DP on a Sys that already holds
// its column views: prefix sums, bands, the two banded tables, one cost
// row and the schedule — 1 621 allocations when every start had its own
// cost row, every layer its own parent row and every call its own refs.
func TestContigTotalAllocations(t *testing.T) {
	sys := newTestSys(t, gen.Lap30())
	sys.ColumnWork()
	sys.columnRefs()
	got := testing.AllocsPerRun(5, func() {
		if _, err := Map("contigtotal", sys, 16, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if got > 150 {
		t.Errorf("contigtotal on LAP30 at P=16: %.0f allocations, want <= 150", got)
	}
}
