package repro_test

import (
	"bytes"
	"math"
	"testing"

	"repro"
	"repro/internal/numeric"
	"repro/internal/traffic"
)

// paperOpts is the paper's production partitioning (g=25, width 4).
var paperOpts = repro.StrategyOptions{Part: repro.PartitionOptions{Grain: 25, MinClusterWidth: 4}}

// analyze builds the pattern-stage artifact or fails the test.
func analyze(t testing.TB, a *repro.Matrix) *repro.Analysis {
	t.Helper()
	an, err := repro.AnalyzePattern(a)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// plan maps an analysis with a registered 1D strategy or fails the test.
func plan(t testing.TB, an *repro.Analysis, name string, p int, opts repro.StrategyOptions) *repro.Plan {
	t.Helper()
	pl, err := an.Plan(name, p, opts)
	if err != nil {
		t.Fatalf("Plan(%s, %d): %v", name, p, err)
	}
	return pl
}

func TestPipelineEndToEnd(t *testing.T) {
	a := repro.LAP30()
	an := analyze(t, a)
	if an.F.NNZ() < a.NNZ() {
		t.Fatal("factor smaller than matrix")
	}
	block, wrap := plan(t, an, "block", 16, paperOpts), plan(t, an, "wrap", 16, paperOpts)
	if bt, wt := block.TrafficTotal(), wrap.TrafficTotal(); bt >= wt {
		t.Errorf("block traffic %d not below wrap %d", bt, wt)
	}
	if bA, wA := block.S1.Imbalance(), wrap.S1.Imbalance(); bA <= wA {
		t.Errorf("block imbalance %.3f not above wrap %.3f (the paper's trade-off)", bA, wA)
	}
}

func TestSolveOriginalSystem(t *testing.T) {
	a := repro.Grid9(12, 12)
	fa, err := plan(t, analyze(t, a), "wrap", 4, repro.StrategyOptions{}).Factorize(a, repro.KernelCholesky)
	if err != nil {
		t.Fatal(err)
	}
	b := stagedRHS(a.N)
	x, err := fa.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := repro.ResidualNorm(a, x, b); r > 1e-10 {
		t.Errorf("residual %g", r)
	}
}

func TestSolveRejectsBadRHS(t *testing.T) {
	a := repro.Grid5(3, 3)
	fa, err := plan(t, analyze(t, a), "wrap", 2, repro.StrategyOptions{}).Factorize(a, repro.KernelCholesky)
	if err != nil {
		t.Fatal(err)
	}
	short := make([]float64, 5)
	if _, err := fa.Solve(short); err == nil {
		t.Error("Solve: expected length error")
	}
	if _, err := fa.SolveParallel(short); err == nil {
		t.Error("SolveParallel: expected length error")
	}
	if _, err := fa.SolveBatch([][]float64{make([]float64, a.N), short}); err == nil {
		t.Error("SolveBatch: expected length error")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	a := repro.Grid9(10, 10)
	an := analyze(t, a)
	pl := plan(t, an, "block", 6, repro.StrategyOptions{Part: repro.PartitionOptions{Grain: 4, MinClusterWidth: 4}})
	par, err := pl.FactorizeParallel(a, repro.KernelCholesky)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := an.PermutedWithValues(a)
	if err != nil {
		t.Fatal(err)
	}
	chol, err := numeric.Factorize(pm, an.F)
	if err != nil {
		t.Fatal(err)
	}
	for k := range par.Val {
		if math.Abs(par.Val[k]-chol.Val[k]) > 1e-9 {
			t.Fatalf("value %d differs: %g vs %g", k, par.Val[k], chol.Val[k])
		}
	}
}

func TestMakespanAPIs(t *testing.T) {
	an := analyze(t, repro.LAP30())
	bm := plan(t, an, "block", 8, repro.StrategyOptions{}).Makespan()
	wm := plan(t, an, "wrap", 8, repro.StrategyOptions{}).Makespan()
	if bm.TotalWork != wm.TotalWork || bm.TotalWork != an.Total {
		t.Errorf("work totals disagree: %d %d %d", bm.TotalWork, wm.TotalWork, an.Total)
	}
	if bm.Makespan <= 0 || wm.Makespan <= 0 {
		t.Error("nonpositive makespan")
	}
}

func TestHBRoundTripViaPublicAPI(t *testing.T) {
	m, tm, err := repro.BuildMatrix("dwt512")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.WriteHB(&buf, m, tm.Description, tm.Name); err != nil {
		t.Fatal(err)
	}
	got, hdr, err := repro.ReadHB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.NRow != m.N || got.NNZ() != m.NNZ() {
		t.Errorf("round trip lost data: %+v", hdr)
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	bad := &repro.Matrix{N: 2, ColPtr: []int{0, 1}, RowInd: []int32{0}}
	if _, err := repro.AnalyzePattern(bad); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := repro.AnalyzePatternOrdered(bad, []int{0, 1}); err == nil {
		t.Fatal("expected validation error from the ordered constructor")
	}
}

func TestFigure2MatrixSize(t *testing.T) {
	if m := repro.FEGrid5(5); m.N != 41 {
		t.Errorf("FEGrid5(5) has %d unknowns, want 41 (Figure 2)", m.N)
	}
}

func TestAnalyzeOrderedVariants(t *testing.T) {
	a := repro.Grid9(10, 10)
	for _, perm := range [][]int{
		repro.MMDOrder(a), repro.RCMOrder(a), repro.NDOrder(a, 16),
	} {
		an, err := repro.AnalyzePatternOrdered(a, perm)
		if err != nil {
			t.Fatal(err)
		}
		fa, err := plan(t, an, "wrap", 4, repro.StrategyOptions{}).Factorize(a, repro.KernelCholesky)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, a.N)
		b[3] = 1
		x, err := fa.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := repro.ResidualNorm(a, x, b); r > 1e-9 {
			t.Errorf("residual %g", r)
		}
	}
	if _, err := repro.AnalyzePatternOrdered(a, []int{0, 1}); err == nil {
		t.Fatal("expected permutation error")
	}
}

func TestPostOrderPermAPI(t *testing.T) {
	a := repro.LAP30()
	perm, err := repro.PostOrderPerm(a, repro.MMDOrder(a))
	if err != nil {
		t.Fatal(err)
	}
	an2, err := repro.AnalyzePatternOrdered(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	if an1 := analyze(t, a); an1.F.NNZ() != an2.F.NNZ() {
		t.Errorf("postorder changed fill: %d vs %d", an1.F.NNZ(), an2.F.NNZ())
	}
}

func TestGreedyScheduleAPI(t *testing.T) {
	an := analyze(t, repro.LAP30())
	opts := repro.StrategyOptions{Part: repro.PartitionOptions{Grain: 25}}
	s34, sgr := plan(t, an, "block", 16, opts), plan(t, an, "blockgreedy", 16, opts)
	if sgr.S1.Imbalance() > s34.S1.Imbalance() {
		t.Errorf("greedy A %.3f above §3.4 A %.3f on LAP30", sgr.S1.Imbalance(), s34.S1.Imbalance())
	}
	dyn := s34.Simulate(repro.SimOptions{Dynamic: true})
	if sta := s34.Makespan(); dyn.Makespan > sta.Makespan {
		t.Errorf("dynamic makespan %d above static %d", dyn.Makespan, sta.Makespan)
	}
}

func TestRelaxedPartitionAPI(t *testing.T) {
	a := repro.LAP30()
	perm, err := repro.PostOrderPerm(a, repro.MMDOrder(a))
	if err != nil {
		t.Fatal(err)
	}
	an, err := repro.AnalyzePatternOrdered(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	opts := repro.StrategyOptions{Part: repro.PartitionOptions{Grain: 25, RelaxZeros: 0.1}}
	if part := an.Sys().Partition(opts.Part); part.Relax.Merges == 0 {
		t.Error("relaxation produced no merges on postordered LAP30")
	}
	pl := plan(t, an, "block", 16, opts)
	tr := pl.Traffic()
	if tr.Total <= 0 {
		t.Error("no traffic measured on relaxed partition")
	}
	if tr.Total != pl.TrafficTotal() {
		t.Errorf("relaxed plan: Traffic().Total %d != TrafficTotal %d", tr.Total, pl.TrafficTotal())
	}
}

func TestSolveParallelEndToEnd(t *testing.T) {
	a := repro.Grid9(14, 14)
	pl := plan(t, analyze(t, a), "block", 6, repro.StrategyOptions{Part: repro.PartitionOptions{Grain: 16, MinClusterWidth: 4}})
	par, err := pl.FactorizeParallel(a, repro.KernelCholesky)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%11) - 5
	}
	x, err := par.SolveParallel(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := repro.ResidualNorm(a, x, b); r > 1e-9 {
		t.Errorf("parallel solve residual %g", r)
	}
	// Bit for bit the sequential pipeline.
	ser, err := pl.Factorize(a, repro.KernelCholesky)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ser.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
			t.Fatalf("component %d: parallel %v vs sequential %v", i, x[i], want[i])
		}
	}
}

func TestSimulateDAGAPI(t *testing.T) {
	tasks := []repro.Task{
		{Proc: 0, Work: 4},
		{Proc: 1, Work: 4},
		{Proc: 0, Work: 4, Preds: []int32{0, 1}},
	}
	if cp := repro.CriticalPath(tasks); cp != 8 {
		t.Fatalf("critical path %d, want 8", cp)
	}
	st := repro.Simulate(tasks, 2, repro.SimOptions{})
	dy := repro.Simulate(tasks, 2, repro.SimOptions{Dynamic: true})
	if st.Makespan != 8 || dy.Makespan != 8 {
		t.Fatalf("makespans %d/%d, want 8", st.Makespan, dy.Makespan)
	}
	if st.TotalWork != 12 {
		t.Fatalf("total work %d", st.TotalWork)
	}
}

// TestTrafficPartConsistentWhenUnrelaxed: on an unrelaxed partition the
// schedule assigns the analysis factor itself, and the plan's traffic
// (simulated over the schedule's own structure) is the traffic of its
// owners over the analysis structure.
func TestTrafficPartConsistentWhenUnrelaxed(t *testing.T) {
	an := analyze(t, repro.LAP30())
	pl := plan(t, an, "block", 16, repro.StrategyOptions{Part: repro.PartitionOptions{Grain: 25}})
	s := *pl.S1
	s.F = an.Ops.F
	if a, b := traffic.Simulate(&s).Total, pl.Traffic().Total; a != b {
		t.Fatalf("traffic over the analysis ops %d != Plan.Traffic %d on unrelaxed partition", a, b)
	}
	// FactorKey tells a relaxed plan's factor from the analysis one by
	// this pointer.
	if pl.S1.F != an.Ops.F || pl.S1.Part == nil || pl.S1.Part.F != an.Ops.F {
		t.Fatal("unrelaxed block schedule does not assign the analysis factor")
	}
}

// TestCommMakespanPublicAPI exercises the communication-aware simulation
// end to end: a zero CommModel reproduces the compute-only run exactly,
// the plan's fetch stats conserve its traffic total, and with
// communication charged (alpha > 0) the block scheme beats wrap in
// unified time at large P — the paper's central claim, which neither
// metric shows alone.
func TestCommMakespanPublicAPI(t *testing.T) {
	an := analyze(t, repro.LAP30())
	cm := repro.CommModel{Alpha: 2, Beta: 10}
	spans := map[string]map[string]int64{} // strategy -> {"compute","comm"} at P=32
	for _, name := range []string{"block", "wrap"} {
		for _, p := range []int{1, 4, 16, 32} {
			pl := plan(t, an, name, p, paperOpts)
			if got, want := pl.MakespanComm(repro.CommModel{}), pl.Makespan(); got != want {
				t.Errorf("%s P=%d: zero-model static %+v != compute-only %+v", name, p, got, want)
			}
			dynamic := pl.Simulate(repro.SimOptions{Dynamic: true})
			if got := pl.Simulate(repro.SimOptions{Dynamic: true, Comm: repro.CommModel{}}); got != dynamic {
				t.Errorf("%s P=%d: zero-model dynamic %+v != compute-only %+v", name, p, got, dynamic)
			}
			if got, want := pl.Fetch.TotalVol(), pl.Traffic().Total; got != want {
				t.Errorf("%s P=%d: fetch volumes sum to %d, traffic total %d", name, p, got, want)
			}
			if p == 32 {
				spans[name] = map[string]int64{
					"compute": dynamic.Makespan,
					"comm":    pl.Simulate(repro.SimOptions{Dynamic: true, Comm: cm}).Makespan,
				}
			}
		}
	}
	if spans["block"]["comm"] >= spans["wrap"]["comm"] {
		t.Errorf("P=32 unified time: block %d >= wrap %d, want block to win once communication is charged",
			spans["block"]["comm"], spans["wrap"]["comm"])
	}
	// Charging communication must widen block's advantage relative to the
	// compute-only spans (wrap pays for its scattered fetches).
	commRatio := float64(spans["wrap"]["comm"]) / float64(spans["block"]["comm"])
	computeRatio := float64(spans["wrap"]["compute"]) / float64(spans["block"]["compute"])
	if commRatio <= computeRatio {
		t.Errorf("comm model did not widen block's advantage: wrap/block ratio %.3f (comm) vs %.3f (compute)",
			commRatio, computeRatio)
	}
}
