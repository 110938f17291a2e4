package symbolic

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/order"
)

func analyzedFor(seed int64, n int) *Factor {
	m := gen.Random(n, 1.3, seed)
	pm, err := m.Permute(order.MMD(m))
	if err != nil {
		panic(err)
	}
	return Analyze(pm)
}

func TestRelaxZeroFracIsIdentity(t *testing.T) {
	f := analyzedFor(1, 50)
	out, stats := Relax(f, 0)
	if out != f {
		t.Fatal("maxFrac=0 must return the input factor")
	}
	if stats.Merges != 0 || stats.PaddedNNZ != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.SupernodesBefore != stats.SupernodesAfter {
		t.Fatalf("supernode counts differ: %+v", stats)
	}
}

func TestRelaxSupersetProperty(t *testing.T) {
	fc := func(seed int64) bool {
		f := analyzedFor(seed, 45)
		out, stats := Relax(f, 0.25)
		if out.N != f.N {
			return false
		}
		if out.NNZ() < f.NNZ() {
			return false
		}
		if stats.PaddedNNZ != out.NNZ()-f.NNZ() {
			return false
		}
		// Every original entry survives.
		for j := 0; j < f.N; j++ {
			for _, i := range f.Col(j) {
				if !out.Has(int(i), j) {
					return false
				}
			}
		}
		// Fewer or equal supernodes.
		return stats.SupernodesAfter <= stats.SupernodesBefore
	}
	if err := quick.Check(fc, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRelaxClosure(t *testing.T) {
	// The padded factor must satisfy the fill property: for every column
	// k and rows j <= i in struct(k), (i, j) must be present. This is what
	// lets the update enumeration run on padded factors.
	fc := func(seed int64) bool {
		f := analyzedFor(seed, 40)
		out, _ := Relax(f, 0.4)
		for k := 0; k < out.N; k++ {
			col := out.Col(k)[1:]
			for a := 0; a < len(col); a++ {
				for b := a; b < len(col); b++ {
					if !out.Has(int(col[b]), int(col[a])) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(fc, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestRelaxMergesOnLap30(t *testing.T) {
	m := gen.Lap30()
	pm, err := m.Permute(order.MMD(m))
	if err != nil {
		t.Fatal(err)
	}
	f := Analyze(pm)
	out, stats := Relax(f, 0.15)
	t.Logf("LAP30 relax 0.15: %v", stats)
	if stats.Merges == 0 {
		t.Error("expected at least one merge on LAP30 at 15% padding")
	}
	if stats.SupernodesAfter >= stats.SupernodesBefore {
		t.Errorf("supernodes %d -> %d, expected a reduction",
			stats.SupernodesBefore, stats.SupernodesAfter)
	}
	// Padding stays bounded: far less than the factor itself.
	if stats.PaddedNNZ > f.NNZ()/2 {
		t.Errorf("padding %d too large vs nnz %d", stats.PaddedNNZ, f.NNZ())
	}
	if out.NNZ() != f.NNZ()+stats.PaddedNNZ {
		t.Error("stats inconsistent with output")
	}
}

func TestRelaxMoreAggressiveMoreMerges(t *testing.T) {
	f := analyzedFor(7, 60)
	_, s1 := Relax(f, 0.05)
	_, s2 := Relax(f, 0.5)
	if s2.SupernodesAfter > s1.SupernodesAfter {
		t.Errorf("more padding budget produced more supernodes: %d vs %d",
			s2.SupernodesAfter, s1.SupernodesAfter)
	}
}

func TestPostOrderPermPreservesFill(t *testing.T) {
	fc := func(seed int64) bool {
		m := gen.Random(50, 1.3, seed)
		perm := order.MMD(m)
		post, err := PostOrderPerm(m, perm)
		if err != nil || !order.IsPermutation(post) {
			return false
		}
		pm1, _ := m.Permute(perm)
		pm2, _ := m.Permute(post)
		return Analyze(pm1).NNZ() == Analyze(pm2).NNZ()
	}
	if err := quick.Check(fc, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPostOrderBoostsRelaxation(t *testing.T) {
	m := gen.Lap30()
	perm := order.MMD(m)
	post, err := PostOrderPerm(m, perm)
	if err != nil {
		t.Fatal(err)
	}
	pmRaw, _ := m.Permute(perm)
	pmPost, _ := m.Permute(post)
	_, sRaw := Relax(Analyze(pmRaw), 0.15)
	_, sPost := Relax(Analyze(pmPost), 0.15)
	t.Logf("raw MMD:       %v", sRaw)
	t.Logf("postordered:   %v", sPost)
	if sPost.Merges < sRaw.Merges {
		t.Errorf("postordering reduced merges: %d vs %d", sPost.Merges, sRaw.Merges)
	}
}
