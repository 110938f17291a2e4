package symbolic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/sparse"
)

// mustFactorEqual holds Analyze and EliminationTree on pm to the
// references: ColPtr, RowInd and Parent element for element.
func mustFactorEqual(t *testing.T, name string, pm *sparse.Matrix) {
	t.Helper()
	got, want := Analyze(pm), refAnalyze(pm)
	if got.N != want.N || !slices.Equal(got.ColPtr, want.ColPtr) ||
		!slices.Equal(got.RowInd, want.RowInd) || !slices.Equal(got.Parent, want.Parent) {
		t.Fatalf("%s: Analyze departs from the reference", name)
	}
	if !slices.Equal(EliminationTree(pm), refEliminationTree(pm)) {
		t.Fatalf("%s: EliminationTree departs from the reference", name)
	}
}

// checkAnalyze tries m in its natural order, under MMD and under a random
// permutation.
func checkAnalyze(t *testing.T, name string, m *sparse.Matrix, rng *rand.Rand) {
	t.Helper()
	mustFactorEqual(t, name+"/natural", m)
	for _, perm := range [][]int{order.MMD(m), rng.Perm(m.N)} {
		pm, err := m.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		mustFactorEqual(t, name+"/permuted", pm)
	}
}

func TestAnalyzeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, tm := range gen.Suite() {
		checkAnalyze(t, tm.Name, tm.Build(), rng)
	}
	for seed := int64(1); seed <= 3; seed++ {
		checkAnalyze(t, fmt.Sprintf("PBUS/seed%d", seed), gen.PowerBus(3000, 900, seed), rng)
		checkAnalyze(t, fmt.Sprintf("CANN/seed%d", seed), gen.Cannes(1500, 8000, seed), rng)
	}
	if !testing.Short() {
		checkAnalyze(t, "Grid9(60,60)", gen.Grid9(60, 60), rng)
		g := gen.Grid9(120, 120)
		pm, err := g.Permute(order.MMD(g))
		if err != nil {
			t.Fatal(err)
		}
		mustFactorEqual(t, "Grid9(120,120)/mmd", pm)
	}
	for k := 0; k < 200; k++ {
		n := rng.Intn(301)
		checkAnalyze(t, fmt.Sprintf("random %d (n=%d)", k, n), gen.Random(n, 4*rng.Float64(), rng.Int63()), rng)
	}
}

func TestAnalyzeAllocations(t *testing.T) {
	m := gen.Lap30()
	pm, err := m.Permute(order.MMD(m))
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() { Analyze(pm) }); got > 12 {
		t.Errorf("Analyze allocates %.0f objects a call, want <= 12", got)
	}
}
