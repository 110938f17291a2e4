package strategy

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// bruteBottleneck finds the optimal bottleneck of a contiguous partition
// into p blocks by exhaustive recursion (feasible for n <= 12).
func bruteBottleneck(work []int64, p int) int64 {
	if p <= 1 {
		var s int64
		for _, w := range work {
			s += w
		}
		return s
	}
	if len(work) == 0 {
		return 0
	}
	best := int64(-1)
	var first int64
	for cut := 0; cut <= len(work); cut++ {
		rest := bruteBottleneck(work[cut:], p-1)
		bot := first
		if rest > bot {
			bot = rest
		}
		if best < 0 || bot < best {
			best = bot
		}
		if cut < len(work) {
			first += work[cut]
		}
	}
	return best
}

func splitBottleneck(work []int64, bounds []int) int64 {
	var bot int64
	for k := 0; k+1 < len(bounds); k++ {
		var s int64
		for j := bounds[k]; j < bounds[k+1]; j++ {
			s += work[j]
		}
		if s > bot {
			bot = s
		}
	}
	return bot
}

// TestContiguousSplitOptimal cross-checks the binary-search split against
// brute force on random work vectors with n <= 12.
func TestContiguousSplitOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		p := 1 + rng.Intn(5)
		work := make([]int64, n)
		for i := range work {
			work[i] = int64(rng.Intn(21)) // include zeros
		}
		bounds := contiguousSplit(work, p)
		if len(bounds) != p+1 || bounds[0] != 0 || bounds[p] != n {
			t.Fatalf("contiguousSplit(%v, %d) bounds = %v", work, p, bounds)
		}
		for k := 0; k < p; k++ {
			if bounds[k] > bounds[k+1] {
				t.Fatalf("contiguousSplit(%v, %d) non-monotone bounds %v", work, p, bounds)
			}
		}
		got := splitBottleneck(work, bounds)
		want := bruteBottleneck(work, p)
		if got != want {
			t.Fatalf("contiguousSplit(%v, %d) bottleneck = %d, optimal = %d (bounds %v)",
				work, p, got, want, bounds)
		}
	}
}

func TestContiguousSplitEdges(t *testing.T) {
	cases := []struct {
		work []int64
		p    int
	}{
		{nil, 3},
		{[]int64{7}, 1},
		{[]int64{7}, 4},
		{[]int64{0, 0, 0}, 2},
		{[]int64{5, 5, 5, 5}, 2},
		{[]int64{100, 1, 1, 1}, 3},
	}
	for _, c := range cases {
		bounds := contiguousSplit(c.work, c.p)
		if len(bounds) != c.p+1 || bounds[0] != 0 || bounds[c.p] != len(c.work) {
			t.Errorf("contiguousSplit(%v, %d) = %v", c.work, c.p, bounds)
			continue
		}
		if got, want := splitBottleneck(c.work, bounds), bruteBottleneck(c.work, c.p); got != want {
			t.Errorf("contiguousSplit(%v, %d) bottleneck = %d, optimal = %d", c.work, c.p, got, want)
		}
	}
}

// TestContiguousMapperOptimal checks the full mapper on small matrices
// (n <= 12): the schedule's maximum per-processor work must equal the
// brute-force optimal bottleneck of the column-work vector.
func TestContiguousMapperOptimal(t *testing.T) {
	matrices := map[string]int{ // name -> grid columns (rows fixed at 3)
		"grid5-3x3": 3,
		"grid5-3x4": 4,
	}
	for name, cols := range matrices {
		sys := newTestSys(t, gen.Grid5(3, cols))
		if sys.F.N > 12 {
			t.Fatalf("%s: n = %d, want <= 12 for brute force", name, sys.F.N)
		}
		colWork := sys.columnWork()
		for _, p := range []int{2, 3, 4} {
			sc, err := Map("contiguous", sys, p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sc.MaxWork(), bruteBottleneck(colWork, p); got != want {
				t.Errorf("%s P=%d: contiguous bottleneck %d, brute-force optimum %d",
					name, p, got, want)
			}
		}
	}
}
