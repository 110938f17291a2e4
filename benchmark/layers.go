package main

// layers.go is the only file of the benchmark that names a symbol of
// repro/internal/...: every other file goes through the aliases and
// wrappers below. A change that renames or folds one of these symbols
// (ROADMAP item 4) re-points this file in a preceding benchmark change and
// leaves the workloads, the estimator and the metric names alone.
//
// Symbols called, by layer (README.md repeats this list):
//
//	gen       Suite, Grid9, PowerBus, Cannes
//	sparse    Matrix, PatternEqual, (*Matrix).Validate, (*Matrix).Permute
//	hbio      Write, Read
//	order     MMD
//	symbolic  Factor, Analyze
//	model     Ops, NewOps, ElementWork, TotalWork
//	core      Options, NewPartition
//	sched     Schedule
//	strategy  Options, Sys, NewSys, Names, Map, Tasks, FetchStats, Traffic
//	          (Traffic is the entry to traffic.Simulate that honours
//	          relaxed partitions)
//	part2d    Schedule2D, Names2D, Map2D, Tasks, FetchStats, Lift
//	traffic   Result, TaskComm (through strategy/part2d)
//	exec      Task, CommModel, SimResult (engines and simulators are reached
//	          through Plan.FactorizeParallel, Factor.SolveParallel,
//	          Plan.Makespan and Plan.MakespanComm)
//	numeric   Cholesky, Factorize, FactorizeLDL, (*Cholesky).Solve,
//	          ResidualNorm
//	artifact  Key, Counts, PatternSum, ValuesSum, (*Store).GetOrBuild
//	pipeline  Cache, Analysis, Plan, Factor, Kernel, Cholesky, LDL,
//	          NewCache, NewAnalysis, AnalysisKey, the Cache methods
//	          Analysis/Plan/Factor/FactorParallel/Solve/Stats/Store, the
//	          Analysis methods Plan/Plan2D/PlanKey/PermutedWithValues/Sys,
//	          the Plan methods Factorize/FactorizeParallel/FactorKey/
//	          Makespan/MakespanComm/TrafficTotal, the Factor methods
//	          Solve/SolveBatch/SolveParallel

import (
	"errors"
	"io"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/hbio"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/order"
	"repro/internal/part2d"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/strategy"
	"repro/internal/symbolic"
)

type (
	matrix     = sparse.Matrix
	symFactor  = symbolic.Factor
	opsModel   = model.Ops
	schedule   = sched.Schedule
	schedule2D = part2d.Schedule2D
	stratSys   = strategy.Sys
	options    = strategy.Options
	task       = exec.Task
	cholFactor = numeric.Cholesky
	storeKey   = artifact.Key
	cache      = pipeline.Cache
	analysis   = pipeline.Analysis
	plan       = pipeline.Plan
	factor     = pipeline.Factor
	kernel     = pipeline.Kernel
)

const (
	cholesky = pipeline.Cholesky
	ldl      = pipeline.LDL
)

// studyComm is the communication model of the study's comm-aware
// makespans: α = 2 work units per fetched element, β = 10 per message.
var studyComm = exec.CommModel{Alpha: 2, Beta: 10}

// The request every solving workload sends: the wrap strategy on the two
// processors this machine has, with default options.
const (
	reqStrategy = "wrap"
	reqProcs    = 2
)

// ---- gen ----

type named struct {
	name   string
	a      *matrix
	seeded bool // the pattern depends on the seed
}

func suite() []named {
	var out []named
	for _, tm := range gen.Suite() {
		out = append(out, named{name: tm.Name, a: tm.Build()})
	}
	return out
}

func grid9(side int) *matrix { return gen.Grid9(side, side) }

func powerBus(n, extra int, seed int64) *matrix { return gen.PowerBus(n, extra, seed) }

func cannes(n, offDiag int, seed int64) *matrix { return gen.Cannes(n, offDiag, seed) }

// ---- sparse, hbio, order, symbolic, model, core ----

func dim(a *matrix) int { return a.N }

func nnz(a *matrix) int64 { return int64(a.NNZ()) }

func factorNNZ(f *symFactor) int64 { return int64(f.NNZ()) }

func values(a *matrix) []float64 { return a.Val }

func patternEqual(a, b *matrix) bool { return sparse.PatternEqual(a, b) }

func validate(a *matrix) error { return a.Validate() }

func permute(a *matrix, perm []int) (*matrix, error) { return a.Permute(perm) }

func hbWrite(w io.Writer, a *matrix) error { return hbio.Write(w, a, "benchmark", "BENCH") }

func hbRead(r io.Reader) (*matrix, error) {
	m, _, err := hbio.Read(r)
	return m, err
}

func mmd(a *matrix) []int { return order.MMD(a) }

func symbolicAnalyze(pm *matrix) *symFactor { return symbolic.Analyze(pm) }

func workModel(f *symFactor) (ops *opsModel, elemWork []int64, total int64) {
	ops = model.NewOps(f)
	elemWork = model.ElementWork(ops)
	return ops, elemWork, model.TotalWork(elemWork)
}

// partitionUnits runs the paper's block partitioner and returns the number
// of unit blocks it made.
func partitionUnits(f *symFactor, grain int) int {
	return len(core.NewPartition(f, core.Options{Grain: grain}).Units)
}

func grainOptions(grain int) options { return options{Part: core.Options{Grain: grain}} }

// ---- strategy, part2d, traffic ----

func strategyNames() []string { return strategy.Names() }

func newSys(f *symFactor, ops *opsModel, elemWork []int64) *stratSys {
	return strategy.NewSys(f, ops, elemWork)
}

func strategyMap(name string, sys *stratSys, p int, opts options) (*schedule, error) {
	return strategy.Map(name, sys, p, opts)
}

func strategyTasks(sys *stratSys, opts options, sc *schedule) []task {
	return strategy.Tasks(sys, opts, sc)
}

// strategyFetch returns the summed fetch volume of the schedule's tasks.
func strategyFetch(sys *stratSys, opts options, sc *schedule) int64 {
	return strategy.FetchStats(sys, opts, sc).TotalVol()
}

// trafficWords runs traffic.Simulate for the schedule and returns its total.
func trafficWords(sys *stratSys, opts options, sc *schedule) int64 {
	return strategy.Traffic(sys, opts, sc).Total
}

func names2D() []string { return part2d.Names2D() }

func map2D(name string, sys *stratSys, p int, opts options) (*schedule2D, error) {
	return part2d.Map2D(name, sys, p, opts)
}

func tasks2D(an *analysis, s2 *schedule2D) ([]task, []int32) {
	return part2d.Tasks(an.Ops, an.ElemWork, s2)
}

func fetch2D(an *analysis, s2 *schedule2D, tasks []task, elemTask []int32) int64 {
	return part2d.FetchStats(an.Ops, s2, len(tasks), elemTask).TotalVol()
}

// lift2D is the column lift a 1D plan's first FactorizeParallel builds.
func lift2D(pl *plan) (*schedule2D, error) {
	if pl.S1 == nil {
		return nil, errors.New("benchmark: lift of a 2D plan")
	}
	return part2d.Lift(pl.An.Sys(), pl.S1, pl.Strategy)
}

// ---- numeric ----

func factorize(pm *matrix, f *symFactor) (*cholFactor, error) { return numeric.Factorize(pm, f) }

func factorizeLDL(pm *matrix, f *symFactor) ([]float64, error) {
	l, err := numeric.FactorizeLDL(pm, f)
	if err != nil {
		return nil, err
	}
	return l.Val, nil
}

func cholValues(c *cholFactor) []float64 { return c.Val }

func sweep(c *cholFactor, pb []float64) []float64 { return c.Solve(pb) }

// residual is ‖Ax−b‖∞/‖b‖∞.
func residual(a *matrix, x, b []float64) float64 { return numeric.ResidualNorm(a, x, b) }

// ---- artifact ----

func patternHash(a *matrix) { _ = artifact.PatternSum(a) }

func valuesHash(a *matrix) { _ = artifact.ValuesSum(a) }

var errNotResident = errors.New("benchmark: key is not resident")

// lookup is Store.GetOrBuild on a key that must already be resident.
func lookup(c *cache, k storeKey) error {
	_, _, err := c.Store().GetOrBuild(k, func() (any, error) { return nil, errNotResident })
	return err
}

func cacheCounts(c *cache) (hits, misses, evictions int64) {
	st := c.Stats()
	return st.Hits, st.Misses, st.Evictions
}

// ---- pipeline: the staged surface ----

func newCache(capacity int) *cache { return pipeline.NewCache(capacity) }

func newAnalysis(a *matrix) (*analysis, error) { return pipeline.NewAnalysis(a) }

func cacheSolve(c *cache, a *matrix, k kernel, b []float64) ([]float64, error) {
	return c.Solve(a, reqStrategy, reqProcs, options{}, k, b)
}

// held is what a caller keeps of one pattern after its first request.
type held struct {
	an *analysis
	pl *plan
}

func cachePlan(c *cache, a *matrix, p int) (held, error) {
	an, err := c.Analysis(a)
	if err != nil {
		return held{}, err
	}
	pl, err := c.Plan(an, reqStrategy, p, options{})
	return held{an, pl}, err
}

func cacheFactor(c *cache, pl *plan, a *matrix, k kernel) (*factor, error) {
	return c.Factor(pl, a, k)
}

// cacheParallelSolve is the request on the parallel path: engine factor
// and fan-in sweeps on the plan's workers.
func cacheParallelSolve(c *cache, a *matrix, b []float64) (*factor, []float64, error) {
	h, err := cachePlan(c, a, reqProcs)
	if err != nil {
		return nil, nil, err
	}
	fa, err := c.FactorParallel(h.pl, a, cholesky)
	if err != nil {
		return nil, nil, err
	}
	x, err := fa.SolveParallel(b)
	return fa, x, err
}

// residentKeys are the three content addresses a warm Cache.Solve of a
// looks up, in its order.
func residentKeys(h held, a *matrix) [3]storeKey {
	return [3]storeKey{
		pipeline.AnalysisKey(a),
		h.an.PlanKey(reqStrategy, reqProcs, options{}, false),
		h.pl.FactorKey(cholesky, a, false),
	}
}

func analysisPlan(an *analysis, name string, p int, opts options) (*plan, error) {
	return an.Plan(name, p, opts)
}

func analysisPlan2D(an *analysis, name string, p int, opts options) (*plan, error) {
	return an.Plan2D(name, p, opts)
}

func permutedWithValues(an *analysis, a *matrix) (*matrix, error) { return an.PermutedWithValues(a) }

func analysisParts(an *analysis) (f *symFactor, sys *stratSys, perm []int, total int64) {
	return an.F, an.Sys(), an.Perm, an.Total
}

func planFactorize(pl *plan, a *matrix, k kernel) (*factor, error) { return pl.Factorize(a, k) }

func planFactorizeParallel(pl *plan, a *matrix) (*factor, error) {
	return pl.FactorizeParallel(a, cholesky)
}

func planSchedule(pl *plan) *schedule { return pl.S1 }

func planTasks(pl *plan) int64 { return int64(len(pl.Tasks)) }

func planTraffic(pl *plan) int64 { return pl.TrafficTotal() }

func planMakespan(pl *plan) int64 { return pl.Makespan().Makespan }

func planMakespanComm(pl *plan) int64 { return pl.MakespanComm(studyComm).Makespan }

func factorSolve(fa *factor, b []float64) ([]float64, error) { return fa.Solve(b) }

func factorSolveBatch(fa *factor, bs [][]float64) ([][]float64, error) { return fa.SolveBatch(bs) }

func factorSolveParallel(fa *factor, b []float64) ([]float64, error) { return fa.SolveParallel(b) }

func factorValues(fa *factor) []float64 { return fa.Val }

func factorPlan(fa *factor) *plan { return fa.Plan }

// factorSweeps exposes a held Cholesky factor as the bare numeric sweeps,
// with the elimination order its right-hand sides are permuted by and the
// nonzeros of L a sweep touches.
func factorSweeps(fa *factor) (ch *cholFactor, perm []int, nnzL int64) {
	return &cholFactor{F: fa.F, Val: fa.Val}, fa.Plan.An.Perm, int64(fa.F.NNZ())
}
