package sparse_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/sparse"
)

// mustPermuteEqual holds Permute to the reference under perm: index
// arrays equal, values bitwise equal (they are moved, never computed).
func mustPermuteEqual(t *testing.T, name string, m *sparse.Matrix, perm []int) {
	t.Helper()
	got, err := m.Permute(perm)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := sparse.RefPermute(m, perm)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if got.N != want.N || !slices.Equal(got.ColPtr, want.ColPtr) || !slices.Equal(got.RowInd, want.RowInd) {
		t.Fatalf("%s: permuted pattern departs from the reference", name)
	}
	if (got.Val == nil) != (want.Val == nil) || !slices.Equal(got.Val, want.Val) {
		t.Fatalf("%s: permuted values depart from the reference", name)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// checkPermute tries m as a pattern and with distinct values, under its
// MMD ordering and under a random one.
func checkPermute(t *testing.T, name string, m *sparse.Matrix, rng *rand.Rand) {
	t.Helper()
	mmd := order.MMD(m)
	mustPermuteEqual(t, name+"/pattern", m, mmd)
	v := m.Clone()
	v.Val = make([]float64, v.NNZ())
	for k := range v.Val {
		v.Val[k] = rng.NormFloat64()
	}
	mustPermuteEqual(t, name+"/mmd", v, mmd)
	mustPermuteEqual(t, name+"/random", v, rng.Perm(m.N))
}

func TestPermuteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, tm := range gen.Suite() {
		checkPermute(t, tm.Name, tm.Build(), rng)
	}
	for seed := int64(1); seed <= 3; seed++ {
		checkPermute(t, fmt.Sprintf("PBUS/seed%d", seed), gen.PowerBus(3000, 900, seed), rng)
		checkPermute(t, fmt.Sprintf("CANN/seed%d", seed), gen.Cannes(1500, 8000, seed), rng)
	}
	checkPermute(t, "Grid9(60,60)", gen.Grid9(60, 60), rng)
	if !testing.Short() {
		checkPermute(t, "Grid9(120,120)", gen.Grid9(120, 120), rng)
	}
	for k := 0; k < 200; k++ {
		n := rng.Intn(301)
		checkPermute(t, fmt.Sprintf("random %d (n=%d)", k, n), gen.Random(n, 4*rng.Float64(), rng.Int63()), rng)
	}
}

func TestPermuteAllocations(t *testing.T) {
	m := gen.Lap30()
	m.SetLaplacianValues(1)
	perm := order.MMD(m)
	got := testing.AllocsPerRun(10, func() {
		if _, err := m.Permute(perm); err != nil {
			t.Fatal(err)
		}
	})
	if got > 8 {
		t.Errorf("Permute allocates %.0f objects a call, want <= 8", got)
	}
}
