package order

import (
	"testing"

	"repro/internal/gen"
)

// TestOrderDeterminism pins the byte-for-byte stability of every ordering
// over repeated runs in one process. No ordering iterates a map any more
// (MMD's supervariable merge sorts one slice of (hash, update-list
// position) keys), so what this guards is the tie-breaks: the minimum
// bucket taken in increasing index, equal hashes compared in update-list
// order. A tie broken by anything that varies from call to call — scratch
// left over in a reused buffer, an address, an unstable sort — makes
// identical calls diverge, and every downstream schedule and artifact key
// with them. CI runs it with -count=2.
func TestOrderDeterminism(t *testing.T) {
	for _, tm := range gen.Suite() {
		m := tm.Build()
		orderings := []struct {
			name string
			run  func() []int
		}{
			{"mmd", func() []int { return MMD(m) }},
			{"nd", func() []int { return NestedDissection(m, 8) }},
		}
		for _, o := range orderings {
			first := o.run()
			for rep := 0; rep < 3; rep++ {
				got := o.run()
				for i := range first {
					if got[i] != first[i] {
						t.Fatalf("%s/%s: run %d diverged at position %d: %d vs %d",
							tm.Name, o.name, rep, i, got[i], first[i])
					}
				}
			}
		}
	}
}
