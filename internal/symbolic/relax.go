package symbolic

import (
	"fmt"
	"slices"

	"repro/internal/sparse"
)

// RelaxStats reports what a relaxed amalgamation did.
type RelaxStats struct {
	// Merges is the number of supernode merges accepted.
	Merges int
	// PaddedNNZ is the number of explicit zeros added to the structure
	// (including closure fill induced by the padding).
	PaddedNNZ int
	// Supernodes counts the supernodes before and after.
	SupernodesBefore, SupernodesAfter int
}

func (s RelaxStats) String() string {
	return fmt.Sprintf("relax: %d merges, %d padded zeros, supernodes %d -> %d",
		s.Merges, s.PaddedNNZ, s.SupernodesBefore, s.SupernodesAfter)
}

// Relax implements the paper's "blocks are formed by including small
// regions that correspond to zeros in the factored matrix in order to
// obtain larger blocks" (Section 3.1): adjacent fundamental supernodes are
// merged when the explicit zeros this adds stay within maxFrac of the
// merged block's area. The returned factor is a closed superset of f
// (padding plus the fill it induces), so every downstream consumer — the
// partitioner, the work model, the traffic simulator — operates on it
// unchanged; the padded zeros are simply carried (and paid for) as if they
// were nonzeros, exactly as a supernodal code stores them.
//
// maxFrac <= 0 returns f itself.
func Relax(f *Factor, maxFrac float64) (*Factor, RelaxStats) {
	stats := RelaxStats{}
	sn := f.Supernodes()
	stats.SupernodesBefore = len(sn) - 1
	if maxFrac <= 0 {
		stats.SupernodesAfter = stats.SupernodesBefore
		return f, stats
	}
	n := f.N

	// Greedy left-to-right merging over adjacent supernode strips.
	type group struct {
		lo, hi int     // column range, inclusive
		below  []int32 // union of rows > hi, sorted
		real   int     // real nonzeros inside the group's columns
	}
	mkGroup := func(lo, hi int) group {
		g := group{lo: lo, hi: hi}
		seen := map[int32]bool{}
		for j := lo; j <= hi; j++ {
			g.real += f.ColLen(j)
			for _, r := range f.Col(j) {
				if int(r) > hi && !seen[r] {
					seen[r] = true
					g.below = append(g.below, r)
				}
			}
		}
		slices.Sort(g.below)
		return g
	}
	merged := []group{}
	cur := mkGroup(sn[0], sn[1]-1)
	for k := 1; k+1 < len(sn); k++ {
		next := mkGroup(sn[k], sn[k+1]-1)
		// Candidate merge of cur and next.
		lo, hi := cur.lo, next.hi
		width := hi - lo + 1
		seen := map[int32]bool{}
		var below []int32
		for _, r := range cur.below {
			if int(r) > hi && !seen[r] {
				seen[r] = true
				below = append(below, r)
			}
		}
		for _, r := range next.below {
			if int(r) > hi && !seen[r] {
				seen[r] = true
				below = append(below, r)
			}
		}
		area := width*(width+1)/2 + width*len(below)
		real := cur.real + next.real
		zeros := area - real
		if zeros < 0 {
			panic("symbolic: padded area below real count")
		}
		if float64(zeros) <= maxFrac*float64(area) {
			slices.Sort(below)
			cur = group{lo: lo, hi: hi, below: below, real: real}
			stats.Merges++
			continue
		}
		merged = append(merged, cur)
		cur = next
	}
	merged = append(merged, cur)

	// Build the padded lower-triangular pattern, the groups covering the
	// columns in order, and close it (padding can break the fill property;
	// re-analyzing restores it).
	padded := &sparse.Matrix{N: n, ColPtr: make([]int, n+1)}
	for _, g := range merged {
		for j := g.lo; j <= g.hi; j++ {
			for r := j; r <= g.hi; r++ {
				padded.RowInd = append(padded.RowInd, int32(r))
			}
			padded.RowInd = append(padded.RowInd, g.below...)
			padded.ColPtr[j+1] = len(padded.RowInd)
		}
	}
	if err := padded.Validate(); err != nil {
		panic(fmt.Sprintf("symbolic: relax produced invalid pattern: %v", err))
	}
	out := Analyze(padded)
	stats.PaddedNNZ = out.NNZ() - f.NNZ()
	stats.SupernodesAfter = len(out.Supernodes()) - 1
	return out, stats
}
