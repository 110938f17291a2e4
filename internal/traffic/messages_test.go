package traffic

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sched"
)

func TestConsolidateVolumeMatchesSimulate(t *testing.T) {
	// Message consolidation regroups the same element fetches, so the
	// element volume must equal Simulate's total exactly.
	fc := func(seed int64) bool {
		m := gen.Random(45, 1.4, seed)
		ops, part, ew := pipeline(m, 4, 3)
		for _, p := range []int{2, 8, 16} {
			bs := sched.BlockMap(part, p)
			if Consolidate(part, ops, bs).Elements != Simulate(ops, bs).Total {
				return false
			}
			ws := sched.WrapMap(ops.F, ew, p)
			if ConsolidateColumns(ops, ws).Elements != Simulate(ops, ws).Total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fc, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestConsolidateBasics(t *testing.T) {
	ops, part, _ := pipeline(gen.Lap30(), 25, 4)
	s := sched.BlockMap(part, 16)
	st := Consolidate(part, ops, s)
	if st.Messages <= 0 || st.Messages > st.Elements {
		t.Fatalf("messages %d, elements %d", st.Messages, st.Elements)
	}
	var sum int64
	for _, x := range st.PerProc {
		sum += x
	}
	if sum != st.Messages {
		t.Fatalf("per-proc messages sum %d != total %d", sum, st.Messages)
	}
	if st.MeanSize < 1 || float64(st.MaxSize) < st.MeanSize {
		t.Fatalf("implausible sizes: mean %.1f max %d", st.MeanSize, st.MaxSize)
	}
}

func TestBlockConsolidatesBetterThanWrap(t *testing.T) {
	// The point of step 5: the block scheme's fetches coalesce into
	// fewer, larger messages than wrap's column-granular traffic.
	for _, tm := range gen.Suite() {
		ops, part, ew := pipeline(tm.Build(), 25, 4)
		bs := sched.BlockMap(part, 16)
		ws := sched.WrapMap(ops.F, ew, 16)
		b := Consolidate(part, ops, bs)
		w := ConsolidateColumns(ops, ws)
		if b.Messages >= w.Messages {
			t.Errorf("%s: block messages %d not below wrap %d", tm.Name, b.Messages, w.Messages)
		}
		t.Logf("%s: messages %d vs %d (ratio %.2f), volume ratio %.2f, mean size %.1f vs %.1f",
			tm.Name, b.Messages, w.Messages,
			float64(b.Messages)/float64(w.Messages),
			float64(b.Elements)/float64(w.Elements), b.MeanSize, w.MeanSize)
	}
}

func TestConsolidateSingleProcessor(t *testing.T) {
	ops, part, _ := pipeline(gen.Grid9(8, 8), 4, 4)
	s := sched.BlockMap(part, 1)
	st := Consolidate(part, ops, s)
	if st.Messages != 0 || st.Elements != 0 {
		t.Fatalf("P=1 produced messages: %+v", st)
	}
}

func TestFetchVolumesSumToTotal(t *testing.T) {
	fc := func(seed int64) bool {
		m := gen.Random(40, 1.3, seed)
		ops, part, ew := pipeline(m, 4, 3)
		for _, p := range []int{2, 8} {
			bs := sched.BlockMap(part, p)
			vol := FetchStats(part, ops, bs).Vol
			var sum int64
			for _, v := range vol {
				sum += v
			}
			if sum != Simulate(ops, bs).Total {
				return false
			}
			ws := sched.WrapMap(ops.F, ew, p)
			cvol := FetchStatsColumns(ops, ws).Vol
			sum = 0
			for _, v := range cvol {
				sum += v
			}
			if sum != Simulate(ops, ws).Total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fc, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestFetchVolumesZeroOnOneProc(t *testing.T) {
	ops, part, _ := pipeline(gen.Grid9(8, 8), 4, 4)
	s := sched.BlockMap(part, 1)
	for u, v := range FetchStats(part, ops, s).Vol {
		if v != 0 {
			t.Fatalf("unit %d has fetch volume %d on one processor", u, v)
		}
	}
}
