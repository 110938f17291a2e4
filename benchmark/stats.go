package main

import (
	"math"
	"slices"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of v by
// the exclusive method — the same numbers Python's
// statistics.quantiles(v, n=4) gives, which is what the driver computes
// run-to-run spreads with. One sample is its own three quartiles; no
// samples give zeros.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := sorted(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside 0..4 after clamping: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise measure the bounds in BENCHMARK.json are compared to.
func spread(v []float64) float64 {
	q1, m, q3 := quartiles(v)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// tailLadder lists the percentiles a timing may be reported at, in
// thousandths so that ranks are exact.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// tailPercentile returns the highest percentile of the ladder that still
// has at least ten samples beyond it, with its nearest-rank value. A tail
// with fewer samples behind it is one or two outliers, not a percentile.
func tailPercentile(v []float64) (p, value float64, ok bool) {
	s := sorted(v)
	n := len(s)
	for _, cand := range tailLadder {
		rank := (cand*n + 999) / 1000
		if rank < 1 || n-rank < 10 {
			break
		}
		p, value, ok = float64(cand)/10, s[rank-1], true
	}
	return p, value, ok
}

// series holds the wall times of one operation: calls[k][i] is the k-th
// call of it that round i made. Every round makes the same calls in the
// same order — the k-th is always the same request on the same matrix — so
// a column is one call's time over the rounds.
type series struct {
	calls [][]float64
	k     int // calls made so far in the current round
}

func (s *series) add(ns float64) {
	if s.k == len(s.calls) {
		s.calls = append(s.calls, nil)
	}
	s.calls[s.k] = append(s.calls[s.k], ns)
	s.k++
}

func (s *series) endRound() { s.k = 0 }

// rounds returns each round's summed time over the calls it made.
func (s *series) rounds() []float64 {
	if len(s.calls) == 0 {
		return nil
	}
	sums := make([]float64, len(s.calls[0]))
	for _, c := range s.calls {
		for i := range sums {
			if i < len(c) {
				sums[i] += c[i]
			}
		}
	}
	return sums
}

// steady is the operation's time per round with the host's interference
// taken out: the sum over its calls of each call's floor. The floor is
// taken per call, not per round, because a round of many calls is almost
// never undisturbed as a whole while each single call often is.
func (s *series) steady() float64 {
	var sum float64
	for _, c := range s.calls {
		sum += floor(c)
	}
	return sum
}

// floor estimates what a call costs when the host leaves it alone.
func floor(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Min(v)
}
