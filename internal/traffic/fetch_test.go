package traffic

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sched"
)

// TestCommFetchStatsConservation: the per-task fetch volumes partition the
// traffic total exactly (every distinct (processor, element) fetch is
// charged to exactly one task), for block and column granularities alike.
func TestCommFetchStatsConservation(t *testing.T) {
	fc := func(seed int64) bool {
		m := gen.Random(45, 1.4, seed)
		ops, part, ew := pipeline(m, 4, 3)
		for _, p := range []int{2, 8, 16} {
			bs := sched.BlockMap(part, p)
			if FetchStats(bs).TotalVol() != Simulate(bs).Total {
				return false
			}
			ws := sched.WrapMap(ops.F, ew, p)
			if FetchStats(ws).TotalVol() != Simulate(ws).Total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fc, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestCommFetchStatsBasics: per-task message counts are sane (at most one
// message per fetched element, at most P-1 source processors per task).
func TestCommFetchStatsBasics(t *testing.T) {
	ops, part, ew := pipeline(gen.Lap30(), 25, 4)
	const p = 16
	bs := sched.BlockMap(part, p)
	tc := FetchStats(bs)
	if len(tc.Vol) != len(part.Units) || len(tc.Msgs) != len(part.Units) {
		t.Fatalf("per-unit stats cover %d/%d tasks, partition has %d units",
			len(tc.Vol), len(tc.Msgs), len(part.Units))
	}
	checkTaskComm(t, tc, p)
	if tc.TotalMsgs() <= 0 {
		t.Error("block schedule at P=16 produced no messages")
	}
	ws := sched.WrapMap(ops.F, ew, p)
	wc := FetchStats(ws)
	if len(wc.Vol) != ops.F.N {
		t.Fatalf("per-column stats cover %d tasks, factor has %d columns", len(wc.Vol), ops.F.N)
	}
	checkTaskComm(t, wc, p)
}

func checkTaskComm(t *testing.T, tc *TaskComm, p int) {
	t.Helper()
	for i := range tc.Vol {
		if tc.Vol[i] < 0 || tc.Msgs[i] < 0 {
			t.Fatalf("task %d: negative stats vol=%d msgs=%d", i, tc.Vol[i], tc.Msgs[i])
		}
		if tc.Msgs[i] > tc.Vol[i] {
			t.Fatalf("task %d: %d messages for %d fetched elements", i, tc.Msgs[i], tc.Vol[i])
		}
		if tc.Msgs[i] > int64(p-1) {
			t.Fatalf("task %d: %d messages from at most %d other processors", i, tc.Msgs[i], p-1)
		}
	}
}

// TestCommFetchStatsSingleProc: with one processor everything is local.
func TestCommFetchStatsSingleProc(t *testing.T) {
	ops, part, ew := pipeline(gen.Grid9(6, 6), 4, 3)
	bs := sched.BlockMap(part, 1)
	if tc := FetchStats(bs); tc.TotalVol() != 0 || tc.TotalMsgs() != 0 {
		t.Errorf("P=1 block: vol %d msgs %d, want 0", tc.TotalVol(), tc.TotalMsgs())
	}
	ws := sched.WrapMap(ops.F, ew, 1)
	if tc := FetchStats(ws); tc.TotalVol() != 0 || tc.TotalMsgs() != 0 {
		t.Errorf("P=1 wrap: vol %d msgs %d, want 0", tc.TotalVol(), tc.TotalMsgs())
	}
}

func TestFetchVolumesSumToTotal(t *testing.T) {
	fc := func(seed int64) bool {
		m := gen.Random(40, 1.3, seed)
		ops, part, ew := pipeline(m, 4, 3)
		for _, p := range []int{2, 8} {
			bs := sched.BlockMap(part, p)
			vol := FetchStats(bs).Vol
			var sum int64
			for _, v := range vol {
				sum += v
			}
			if sum != Simulate(bs).Total {
				return false
			}
			ws := sched.WrapMap(ops.F, ew, p)
			cvol := FetchStats(ws).Vol
			sum = 0
			for _, v := range cvol {
				sum += v
			}
			if sum != Simulate(ws).Total {
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
	_, part, _ := pipeline(gen.Grid9(8, 8), 4, 4)
	s := sched.BlockMap(part, 1)
	for u, v := range FetchStats(s).Vol {
		if v != 0 {
			t.Fatalf("unit %d has fetch volume %d on one processor", u, v)
		}
	}
}
