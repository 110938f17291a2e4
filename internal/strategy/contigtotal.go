package strategy

import (
	"math"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// contigTotalMapper assigns contiguous column blocks minimizing the
// *total* communication volume — Ahrens (2020)'s other objective, the
// complement of the bottleneck-optimal "contiguous" strategy. The work
// constraint comes first: every block's work is bounded by
// (1 + opts.Slack) times the optimal contiguous bottleneck B*, so the
// mapper never trades away the load balance the bottleneck split would
// achieve. Within that feasible set it solves, by dynamic programming
// over candidate block boundaries, for the split whose simulated data
// traffic (the paper's Section 4 fetch-on-first-use model) is minimal —
// optimal by construction, not refined toward the objective.
//
// The cost oracle is traffic.ColumnRefs: a block fetches, per source
// column k owned to its left, the trailing elements of k from the
// block's first target row in struct(k) downward. Those per-cut volumes
// sum exactly to traffic.Simulate's total for the resulting schedule
// (regression-tested), which is what makes the DP's optimum the true
// traffic optimum over all work-feasible contiguous splits.
//
// Options.Beta2 mixes the per-cut message counts into the objective
// (volume + Beta2 x messages, one message per distinct source column a
// block fetches across its left cut), trading volume for message
// consolidation; the optimum's message count never increases with Beta2.
type contigTotalMapper struct{}

func (contigTotalMapper) Name() string { return "contigtotal" }

func (contigTotalMapper) Map(sys *Sys, p int, opts Options) (*sched.Schedule, error) {
	if err := sched.CheckProcs("strategy", p); err != nil {
		return nil, err
	}
	work := sys.ColumnWork()
	bound := slackBound(OptimalBottleneck(work, p), opts.Slack)
	beta2 := opts.Beta2
	if beta2 < 0 {
		beta2 = 0
	}
	bounds := contiguousSplitTotal(work, sys.columnRefs(), p, bound, beta2, opts.Search)
	return columnSchedule(sys, p, ownersFromBounds(sys.F.N, bounds)), nil
}

func init() { Register(contigTotalMapper{}) }

// slackBound is the work bound (1 + slack) bstar, saturating at MaxInt64;
// a slack <= 0 selects bstar.
func slackBound(bstar int64, slack float64) int64 {
	if slack <= 0 {
		return bstar
	}
	extra := slack * float64(bstar)
	if extra >= float64(math.MaxInt64)-float64(bstar) {
		return math.MaxInt64
	}
	return bstar + int64(extra)
}

// ContiguousSplitTotal partitions columns 0..n-1 into p contiguous
// blocks minimizing the communication of the induced column schedule,
// subject to every block's work being at most maxWork. refs is the fetch
// attribution of traffic.ColumnRefs over the same factor the work vector
// came from (each list by increasing source column, as ColumnRefs returns
// it); the minimized objective is volume + beta2 x messages, where
// the volume is the exact data traffic of the paper's fetch-on-first-use
// model and a block receives one message per distinct source column it
// fetches across its left cut. beta2 = 0 (the classical objective)
// minimizes pure volume; beta2 > 0 trades volume for message
// consolidation, and the optimal split's message count is non-increasing
// in beta2 (the scalarization exchange argument the regression test
// pins). The boundaries come back in ContiguousSplit's format (length
// p+1, bounds[0] = 0, bounds[p] = n, empty blocks allowed). It returns
// nil when no partition into at most p blocks of work <= maxWork exists
// (maxWork below OptimalBottleneck(work, p)); with maxWork >= B* a
// solution always exists. It panics on p < 1, the shared contract of
// the exported split helpers (see split.go).
//
// The DP runs over block end positions: dp[k][j] is the minimal total
// objective of covering columns [0, j) with k blocks, with transitions
// dp[k][j] = min over i of dp[k-1][i] + C(i, j) where C(i, j) is block
// [i, j)'s fetch objective — for every source column k' < i whose
// structure has a target in [i, j), the trailing volume of k' from the
// first such target plus beta2 for the message. Only the states a
// complete split can pass through are held: layer k keeps the end
// positions j that k blocks can reach (pre[j] <= k maxWork) and the
// remaining p-k can finish from (pre[n] - pre[j] <= (p-k) maxWork), a
// band of the prefix sums whose width is the work slack p maxWork - pre[n]
// — a few columns at B*, everything at an unbounded maxWork. A transition
// into band k can only start in band k-1 (a start below it ends below band
// k as well, one above it is unreachable), so values, parents and the
// smallest-start tie-break inside the bands are those of the full table.
// C(i, .) is evaluated incrementally, once per start that some layer
// reaches, so time follows the live states and their work windows and
// memory the total band width. Costs are held in float64; with beta2 = 0
// every value is an exactly-representable integer, so the float DP's
// decisions coincide with the original integer DP's.
func ContiguousSplitTotal(work []int64, refs [][]traffic.ColRef, p int, maxWork int64, beta2 float64) []int {
	return contiguousSplitTotal(work, refs, p, maxWork, beta2, nil)
}

// contiguousSplitTotal is ContiguousSplitTotal plus search telemetry: tel
// counts every DP transition relaxation evaluated as a trial (accepted
// when it improved the state's best) and records the optimal objective as
// the trajectory's final point.
func contiguousSplitTotal(work []int64, refs [][]traffic.ColRef, p int, maxWork int64, beta2 float64, tel *obs.SearchTelemetry) []int {
	sched.MustProcs("strategy", p)
	n := len(work)
	bounds := make([]int, p+1)
	bounds[p] = n
	if n == 0 {
		return bounds
	}
	if maxWork < 0 {
		return nil // not even a zero-work column fits a block
	}
	pre := prefixWork(work)

	// Band [lo[k], hi[k]] of layer k, and its offset off[k] into the flat
	// tables. Both ends are non-decreasing in k, so one sweep finds each.
	// Layer 0 is the single state j = 0 and layer p the single state j = n.
	tab := make([]int, 3*(p+1)+1)
	lo, hi, off := tab[:p+1], tab[p+1:2*(p+1)], tab[2*(p+1):]
	l, h := 0, 0
	for k := 1; k <= p; k++ {
		for need := pre[n] - satMul(int64(p-k), maxWork); pre[l] < need; {
			l++
		}
		for reach := satMul(int64(k), maxWork); h < n && pre[h+1] <= reach; {
			h++
		}
		lo[k], hi[k] = l, h
		if k == p {
			lo[k] = n
		}
		if lo[k] > hi[k] {
			return nil // pre[n] > p maxWork, or a column no slack absorbs
		}
		off[k] = off[k-1] + hi[k-1] - lo[k-1] + 1
	}
	off[p+1] = off[p] + 1

	inf := math.Inf(1)
	dp := make([]float64, off[p+1])
	par := make([]int32, off[p+1])
	for s := 1; s < len(dp); s++ {
		dp[s] = inf
	}

	// One pass over the starts i, relaxing out of every layer that holds i
	// before moving on: all transitions into (k, i) come from starts <= i,
	// the empty block (k-1, i) last, so dp[k][i] is final when read, and
	// each state sees its candidate starts in increasing order — the
	// smallest start wins ties.
	row := make([]float64, n+1) // row[j-i] = C(i, j) of the current start
	// seen[k'] == i+1 marks source column k' already charged to the block
	// starting at i (epoch trick: no per-start reset).
	seen := make([]int32, n)
	kFirst, kLast, jmax := 0, 0, 0
	for i := 0; i <= n; i++ {
		// Layers whose band holds i as a start: kFirst..kLast within 0..p-1.
		for kFirst < p && hi[kFirst] < i {
			kFirst++
		}
		for kLast+1 < p && lo[kLast+1] <= i {
			kLast++
		}
		// jmax is the furthest end with block work pre[j]-pre[i] <= maxWork.
		for jmax < i || (jmax < n && pre[jmax+1]-pre[i] <= maxWork) {
			jmax++
		}
		built := false
		for k := kFirst; k <= kLast; k++ {
			d := dp[off[k]+i-lo[k]]
			if math.IsInf(d, 1) {
				continue
			}
			if !built {
				built = true
				var vol, msgs int64
				for j := i + 1; j <= min(jmax, hi[kLast+1]); j++ {
					// Column j-1 joins block [i, j); refs are by increasing
					// source, and a source inside the block is local.
					for _, r := range refs[j-1] {
						if int(r.Col) >= i {
							break
						}
						if seen[r.Col] != int32(i+1) {
							seen[r.Col] = int32(i + 1)
							vol += r.Vol
							msgs++
						}
					}
					row[j-i] = float64(vol) + beta2*float64(msgs)
				}
			}
			js, je := max(i, lo[k+1]), min(jmax, hi[k+1])
			if js > je {
				continue
			}
			costs := row[js-i : je-i+1]
			at := off[k+1] - lo[k+1] + js
			best, from := dp[at:at+len(costs)], par[at:at+len(costs)]
			for t, c := range costs {
				if cand := d + c; cand < best[t] {
					best[t] = cand
					from[t] = int32(i)
					tel.Trial(true)
				} else {
					tel.Trial(false)
				}
			}
		}
	}
	if math.IsInf(dp[off[p]], 1) {
		return nil
	}
	tel.Objective(int64(dp[off[p]]))
	at := n
	for k := p; k >= 1; k-- {
		bounds[k] = at
		at = int(par[off[k]+at-lo[k]])
	}
	return bounds
}

// satMul is a * b for non-negative operands, saturating at MaxInt64.
func satMul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}
