package strategy

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

// refContiguousSplitTotal is contiguousSplitTotal as it stood before the
// work-feasible band: cost[i][.] for every start over its whole work
// window, every (i, j) of the window relaxed in each of p layers. It is the
// equality oracle for the bounds and the objective of the banded DP; its
// trial counts are the old ones (the band evaluates fewer relaxations by
// design, so Trials is not compared).
func refContiguousSplitTotal(work []int64, refs [][]traffic.ColRef, p int, maxWork int64, beta2 float64, tel *obs.SearchTelemetry) []int {
	sched.MustProcs("strategy", p)
	n := len(work)
	bounds := make([]int, p+1)
	bounds[p] = n
	if n == 0 {
		return bounds
	}
	pre := prefixWork(work)

	cost := make([][]float64, n+1)
	cost[n] = []float64{0}
	seen := make([]int, n)
	for i := 0; i < n; i++ {
		jmax := i
		for jmax < n && pre[jmax+1]-pre[i] <= maxWork {
			jmax++
		}
		row := make([]float64, jmax-i+1)
		var vol int64
		var msgs int64
		for j := i + 1; j <= jmax; j++ {
			x := j - 1
			for _, r := range refs[x] {
				if int(r.Col) >= i {
					continue
				}
				if seen[r.Col] == i+1 {
					continue
				}
				seen[r.Col] = i + 1
				vol += r.Vol
				msgs++
			}
			row[j-i] = float64(vol) + beta2*float64(msgs)
		}
		cost[i] = row
	}

	inf := math.Inf(1)
	dp := make([]float64, n+1)
	next := make([]float64, n+1)
	par := make([][]int32, p+1)
	for j := 1; j <= n; j++ {
		dp[j] = inf
	}
	for k := 1; k <= p; k++ {
		par[k] = make([]int32, n+1)
		for j := 0; j <= n; j++ {
			next[j] = inf
			par[k][j] = -1
		}
		for i := 0; i <= n; i++ {
			if math.IsInf(dp[i], 1) {
				continue
			}
			row := cost[i]
			for d, c := range row {
				j := i + d
				if cand := dp[i] + c; cand < next[j] {
					next[j] = cand
					par[k][j] = int32(i)
					tel.Trial(true)
				} else {
					tel.Trial(false)
				}
			}
		}
		dp, next = next, dp
	}
	if math.IsInf(dp[n], 1) {
		return nil
	}
	tel.Objective(int64(dp[n]))
	at := n
	for k := p; k >= 1; k-- {
		bounds[k] = at
		at = int(par[k][at])
	}
	bounds[0] = 0
	return bounds
}

// checkSplitMatchesRef holds the DP to the reference on one instance: the
// same boundary vector (so the same optimum and the same smallest-start
// tie-break), the same recorded objective, and no more relaxations.
func checkSplitMatchesRef(t *testing.T, cell string, work []int64, refs [][]traffic.ColRef, p int, maxWork int64, beta2 float64) {
	t.Helper()
	var gotTel, wantTel obs.SearchTelemetry
	got := contiguousSplitTotal(work, refs, p, maxWork, beta2, &gotTel)
	want := refContiguousSplitTotal(work, refs, p, maxWork, beta2, &wantTel)
	if (got == nil) != (want == nil) || !slices.Equal(got, want) {
		t.Fatalf("%s: bounds %v, reference %v", cell, got, want)
	}
	if !slices.Equal(gotTel.Trajectory, wantTel.Trajectory) {
		t.Fatalf("%s: objective %v, reference %v", cell, gotTel.Trajectory, wantTel.Trajectory)
	}
	if gotTel.Trials != gotTel.Accepted+gotTel.Rejected || gotTel.Trials > wantTel.Trials {
		t.Fatalf("%s: %d trials (%d + %d), reference %d", cell, gotTel.Trials, gotTel.Accepted, gotTel.Rejected, wantTel.Trials)
	}
}

// TestContigTotalMatchesReference: the banded DP returns the reference's
// boundary vector and objective on the suite at every processor count,
// slack and message weight the studies and the fuzzers reach, at the
// infeasible bound B* - 1 and on the degenerate inputs.
func TestContigTotalMatchesReference(t *testing.T) {
	slacks := []float64{0, 0.05, 0.5, 1e30}
	for _, tm := range gen.Suite() {
		sys := newTestSys(t, tm.Build())
		n := sys.F.N
		work, refs := sys.ColumnWork(), traffic.ColumnRefs(sys.Ops)
		procs := []int{1, 2, 3, 4, 7, 16, 64, 200, n + 7}
		if testing.Short() || raceBuild {
			procs = []int{4, 16}
		}
		for _, p := range procs {
			bstar := OptimalBottleneck(work, p)
			for _, slack := range slacks {
				for _, beta2 := range []float64{0, 3.5} {
					// The reference costs p x n x window relaxations: past
					// P = 64 the suite runs one cell per P, and wide windows
					// at large P only where n <= 600; the small-matrix test
					// below runs the whole grid at P up to 2000.
					if (p > 64 && (slack > 0 || beta2 == 0)) || (p > 16 && slack > 0.05 && (n > 600 || testing.Short() || raceBuild)) {
						continue
					}
					cell := fmt.Sprintf("%s/P=%d/slack=%g/beta2=%g", tm.Name, p, slack, beta2)
					checkSplitMatchesRef(t, cell, work, refs, p, slackBound(bstar, slack), beta2)
				}
			}
			checkSplitMatchesRef(t, fmt.Sprintf("%s/P=%d/B*-1", tm.Name, p), work, refs, p, bstar-1, 0)
			if got := contiguousSplitTotal(work, refs, p, bstar-1, 0, nil); got != nil {
				t.Fatalf("%s P=%d: bound B*-1 returned %v, want nil", tm.Name, p, got)
			}
		}
	}
}

// TestContigTotalMatchesReferenceSmall covers what the suite grid trims —
// every slack at processor counts far past n — and the degenerate inputs:
// no columns, all-zero work, leading and trailing zero-work columns.
func TestContigTotalMatchesReferenceSmall(t *testing.T) {
	for _, m := range []*sparse.Matrix{gen.Grid5(3, 3), gen.Grid9(8, 8), gen.FEGrid5(2), gen.Random(60, 1.5, 3)} {
		sys := newTestSys(t, m)
		n := sys.F.N
		work, refs := sys.ColumnWork(), traffic.ColumnRefs(sys.Ops)
		for _, p := range []int{1, 2, 3, 4, 7, 16, 64, 200, 2000} {
			bstar := OptimalBottleneck(work, p)
			for _, slack := range []float64{0, 0.05, 0.5, 1e30} {
				for _, beta2 := range []float64{0, 3.5} {
					cell := fmt.Sprintf("n=%d/P=%d/slack=%g/beta2=%g", n, p, slack, beta2)
					checkSplitMatchesRef(t, cell, work, refs, p, slackBound(bstar, slack), beta2)
				}
			}
			checkSplitMatchesRef(t, fmt.Sprintf("n=%d/P=%d/B*-1", n, p), work, refs, p, bstar-1, 0)
		}
		// Zero-work columns make the prefix sums flat: the bands must keep
		// every position of a plateau.
		zeroed := slices.Clone(work)
		for j := range zeroed {
			if j < 3 || j >= n-2 || j%4 == 1 {
				zeroed[j] = 0
			}
		}
		allZero := make([]int64, n)
		for _, p := range []int{1, 3, 7, n + 1} {
			for _, mw := range []int64{OptimalBottleneck(zeroed, p), OptimalBottleneck(zeroed, p) - 1, math.MaxInt64} {
				checkSplitMatchesRef(t, fmt.Sprintf("n=%d/zeroed/P=%d/max=%d", n, p, mw), zeroed, refs, p, mw, 0)
			}
			for _, mw := range []int64{0, -1, 5, math.MaxInt64} {
				checkSplitMatchesRef(t, fmt.Sprintf("n=%d/all-zero/P=%d/max=%d", n, p, mw), allZero, refs, p, mw, 1.5)
			}
		}
	}
	for _, p := range []int{1, 5} {
		if got := contiguousSplitTotal(nil, nil, p, 0, 0, nil); !slices.Equal(got, make([]int, p+1)) {
			t.Fatalf("n=0 P=%d: bounds %v, want all zero", p, got)
		}
	}
}

// fuzzSplitCase decodes bytes into a small symmetric pattern (n <= 24,
// natural order, as traffic's fuzzCase), a processor count that may exceed
// n, a slack, a message weight and a selector for the work bound.
func fuzzSplitCase(data []byte) (m *sparse.Matrix, p int, slack, beta2 float64, boundSel byte) {
	if len(data) < 6 {
		return nil, 0, 0, 0, 0
	}
	n := 2 + int(data[0])%23
	p = 1 + int(data[1])%40
	slack = float64(data[2]%8) / 8
	beta2 = float64(data[3]%5) * 0.75
	boundSel = data[4]
	nedges := int(data[5]) % 64
	data = data[6:]
	var edges [][2]int
	for ; nedges > 0 && len(data) >= 2; nedges-- {
		edges = append(edges, [2]int{int(data[0]) % n, int(data[1]) % n})
		data = data[2:]
	}
	m, err := sparse.NewPattern(n, edges)
	if err != nil {
		return nil, 0, 0, 0, 0
	}
	return m, p, slack, beta2, boundSel
}

// FuzzContigTotalSplit holds the banded DP to the reference on
// fuzzer-written patterns, processor counts past n and work bounds from
// below B* (no split exists) to MaxInt64 (every split is feasible); at
// n <= 10 with pure volume the returned split's traffic is also the
// exhaustive optimum over every work-feasible contiguous split.
func FuzzContigTotalSplit(f *testing.F) {
	f.Add([]byte{3, 2, 0, 0, 0, 3, 0, 1, 1, 2, 0, 2})                            // dense 4x4, P = 3, bound B*
	f.Add([]byte{8, 3, 2, 1, 1, 9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0, 5, 2, 7, 9}) // n = 10, slack, beta2
	f.Add([]byte{22, 39, 7, 4, 2, 40, 0, 5, 5, 9, 9, 1, 1, 20, 3, 7, 0, 4})      // P = 40 > n, bound MaxInt64
	f.Add([]byte{5, 6, 0, 0, 3, 6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6})          // chain, bound B* - 1
	f.Add([]byte{10, 0, 3, 2, 4, 9, 0, 11, 1, 11, 2, 11, 2, 3, 0, 0})            // P = 1, bound below the heaviest column
	f.Fuzz(func(t *testing.T, data []byte) {
		m, p, slack, beta2, boundSel := fuzzSplitCase(data)
		if m == nil {
			return
		}
		sys := NewSys(symbolic.Analyze(m), nil, nil)
		n := sys.F.N
		work, refs := sys.ColumnWork(), traffic.ColumnRefs(sys.Ops)
		bstar := OptimalBottleneck(work, p)
		maxWork := slackBound(bstar, slack)
		switch boundSel % 5 {
		case 2:
			maxWork = math.MaxInt64
		case 3:
			maxWork = bstar - 1
		case 4:
			maxWork = bstar / 2
		}
		checkSplitMatchesRef(t, "fuzz", work, refs, p, maxWork, beta2)
		if n > 10 || p > 4 {
			return
		}
		bounds := contiguousSplitTotal(work, refs, p, maxWork, 0, nil)
		best := int64(-1)
		forEachSplit(n, p, func(b []int) {
			if splitMaxWork(work, b) > maxWork {
				return
			}
			sc := columnSchedule(sys, p, ownersFromBounds(n, b))
			if tr := Traffic(sys, Options{}, sc).Total; best < 0 || tr < best {
				best = tr
			}
		})
		if (bounds == nil) != (best < 0) {
			t.Fatalf("bounds %v, exhaustive optimum %d", bounds, best)
		}
		if bounds != nil {
			sc := columnSchedule(sys, p, ownersFromBounds(n, bounds))
			if got := Traffic(sys, Options{}, sc).Total; got != best {
				t.Fatalf("traffic %d, exhaustive optimum %d", got, best)
			}
		}
	})
}
