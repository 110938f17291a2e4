// Package repro is a Go reproduction of Venugopal & Naik, "Effects of
// Partitioning and Scheduling Sparse Matrix Factorization on Communication
// and Load Balance" (Supercomputing 1991; ICASE Report 91-80).
//
// It provides a block-based, automatic partitioner and scheduler for
// sparse Cholesky factorization on (simulated) distributed-memory
// machines, the classical wrap-mapped column baseline, and the simulation
// machinery that measures what the paper measures: data traffic and load
// imbalance. The full pipeline is
//
//	matrix -> MMD ordering -> symbolic factorization -> clusters
//	       -> unit blocks -> dependencies -> schedule -> simulate
//
// A minimal use:
//
//	sys, _ := repro.Analyze(repro.LAP30())
//	part := sys.Partition(repro.PartitionOptions{Grain: 25, MinClusterWidth: 4})
//	block := sys.BlockSchedule(part, 16)
//	wrap := sys.WrapSchedule(16)
//	fmt.Println(sys.Traffic(block).Total, "vs", sys.Traffic(wrap).Total)
//
// Beyond the paper's two schemes, a pluggable strategy registry
// (internal/strategy) maps the same factorization with contiguous
// optimal-bottleneck column blocks, total-communication-optimal
// contiguous blocks (a work-bounded DP over cut boundaries), symmetric
// rectilinear diagonal blocks shared by rows and columns, block-cyclic
// layouts, subtree-to-subcube allocation over the elimination tree, or a
// greedy refinement pass over any base scheme (minimizing load
// imbalance, data traffic, or the unified comm-aware dynamic makespan):
//
//	sc, _ := sys.MapStrategy("contiguous", 16, repro.StrategyOptions{})
//	fmt.Println(sys.StrategyTraffic(repro.StrategyOptions{}, sc).Total)
//
// A second registry (internal/part2d) generalizes schedules to 2D tile
// ownership: each (rowBlock, colBlock) tile of a shared diagonal interval
// structure is assigned to a processor, measured by a fan-out/fan-in
// traffic simulator and comm-aware makespan simulators that are
// bit-identical to the 1D ones on column-granular tilings:
//
//	s2, _ := sys.MapStrategy2D("rect2d", 16, repro.StrategyOptions{})
//	fmt.Println(sys.Traffic2D(s2).Total, sys.Makespan2DComm(s2, cm).Makespan)
//
// The subsystems live in internal packages (sparse storage, generators,
// Harwell-Boeing I/O, MMD ordering, symbolic and numeric factorization,
// the partitioner core, schedulers, the mapping-strategy registry, and
// the traffic/makespan simulators); this package re-exports the stable
// surface needed to reproduce and extend the paper's experiments.
package repro

import (
	"fmt"
	"io"

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
	"repro/internal/traffic"
)

// Matrix is a sparse symmetric matrix stored as its lower triangle.
type Matrix = sparse.Matrix

// SymbolicFactor is the symbolic structure of a Cholesky factor. (The
// name Factor now denotes the numeric-stage artifact of the staged
// pipeline; see staged.go.)
type SymbolicFactor = symbolic.Factor

// Partition is the block-based partitioner output: clusters, unit blocks
// and their dependency graph.
type Partition = core.Partition

// PartitionOptions controls the partitioner (grain size and minimum
// cluster width, the two knobs of the paper's experiments).
type PartitionOptions = core.Options

// Unit is one schedulable unit block (column, triangle or rectangle).
type Unit = core.Unit

// Schedule is an assignment of factorization work to processors.
type Schedule = sched.Schedule

// TrafficResult is the outcome of the data-traffic simulation.
type TrafficResult = traffic.Result

// MakespanResult is the outcome of the dependency-delay simulation.
type MakespanResult = exec.SimResult

// CommModel is the linear communication-time model of the comm-aware
// makespan simulators: Alpha work units per fetched non-local element
// (bandwidth) plus Beta work units per consolidated message (latency).
// The zero value charges nothing and reproduces the compute-only
// simulators exactly.
type CommModel = exec.CommModel

// TaskComm attributes a schedule's communication to its makespan tasks:
// per-task fetch volumes (summing to the traffic total) and consolidated
// message counts.
type TaskComm = traffic.TaskComm

// Task is one node of a generic scheduled task DAG. The paper's Section 5
// notes the methodology "can be generalized to computations that can be
// represented as directed acyclic graphs"; the simulation machinery is
// exposed for such use (see examples and SimulateDAG).
type Task = exec.Task

// Cholesky is a numeric Cholesky factor.
type Cholesky = numeric.Cholesky

// LDL is a square-root-free LDLᵀ factorization (usable for symmetric
// indefinite systems; exposes inertia).
type LDL = numeric.LDL

// HBHeader identifies a Harwell-Boeing file.
type HBHeader = hbio.Header

// TestMatrix describes one of the paper's test problems.
type TestMatrix = gen.TestMatrix

// System bundles the analysis products of one matrix: the fill-reducing
// ordering, the permuted matrix and the symbolic factor. It is a view
// over the staged pipeline's Analysis artifact (see staged.go) that keeps
// the original monolithic surface working; new code should hold the
// staged artifacts directly, which make the analyze-once / factor-many /
// solve-many split explicit and cacheable.
type System struct {
	// A is the original matrix, Order the fill-reducing permutation
	// (Order[k] = original index of the k-th eliminated variable), and
	// Permuted the reordered matrix actually factorized.
	A        *Matrix
	Order    []int
	Permuted *Matrix
	F        *SymbolicFactor

	an *pipeline.Analysis
}

// Analyze orders the matrix with multiple minimum degree and computes the
// symbolic factorization, the inputs of the partitioning pipeline.
func Analyze(a *Matrix) (*System, error) {
	an, err := pipeline.NewAnalysis(a)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return systemFrom(a, an)
}

// AnalyzeOrdered is Analyze with a caller-supplied elimination order
// (order[k] = original index of the k-th variable). Use MMDOrder,
// RCMOrder, NDOrder or PostOrderPerm to produce one.
func AnalyzeOrdered(a *Matrix, perm []int) (*System, error) {
	an, err := pipeline.NewAnalysisOrdered(a, perm)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return systemFrom(a, an)
}

// systemFrom wraps a staged Analysis as a System, reattaching a's values
// to the pattern-only permuted matrix (bitwise what a.Permute produced
// before the split).
func systemFrom(a *Matrix, an *pipeline.Analysis) (*System, error) {
	pm := an.Permuted
	if a.Val != nil {
		pv, err := an.PermuteValues(a)
		if err != nil {
			return nil, fmt.Errorf("repro: %w", err)
		}
		pm = &Matrix{N: pm.N, ColPtr: pm.ColPtr, RowInd: pm.RowInd, Val: pv}
	}
	return &System{A: a, Order: an.Perm, Permuted: pm, F: an.F, an: an}, nil
}

// Analysis returns the staged pattern-stage artifact this System wraps,
// the entry point for the staged plan/factor/solve API and the artifact
// Cache.
func (s *System) Analysis() *Analysis { return s.an }

// MMDOrder computes the multiple-minimum-degree ordering (the paper's
// choice for every experiment).
func MMDOrder(a *Matrix) []int { return order.MMD(a) }

// RCMOrder computes the reverse Cuthill-McKee (bandwidth-reducing)
// ordering.
func RCMOrder(a *Matrix) []int { return order.RCM(a) }

// NDOrder computes a nested-dissection ordering (leaf pieces of at most
// leafSize ordered by minimum degree; leafSize <= 0 selects the default).
func NDOrder(a *Matrix, leafSize int) []int { return order.NestedDissection(a, leafSize) }

// PostOrderPerm composes an ordering with a postordering of its
// elimination tree: identical fill, contiguous subtrees (which is what
// cluster relaxation needs to find merges).
func PostOrderPerm(a *Matrix, perm []int) ([]int, error) {
	return symbolic.PostOrderPerm(a, perm)
}

// TotalWork returns the total factorization work under the paper's model
// (2 units per pair update, 1 unit per diagonal update).
func (s *System) TotalWork() int64 { return s.an.Total }

// Partition runs the block-based partitioner of Section 3.
func (s *System) Partition(opts PartitionOptions) *Partition {
	return core.NewPartitionWork(s.F, opts, s.an.ElemWork)
}

// BlockSchedule allocates the partition's unit blocks to p processors with
// the Section 3.4 heuristic.
//
//repro:allow procguard -- thin wrapper; sched.BlockMap panics on p < 1 with its package prefix
func (s *System) BlockSchedule(part *Partition, p int) *Schedule {
	return sched.BlockMap(part, p)
}

// BlockScheduleGreedy allocates with the work-aware variant of the
// Section 3.4 heuristic (the "more sophisticated strategy" the paper's
// Section 5 anticipates): all fallback decisions pick the least-loaded
// processor. It trades a small amount of extra communication for a much
// better load balance; see EXPERIMENTS.md Ext-E.
//
//repro:allow procguard -- thin wrapper; sched.BlockMapGreedy panics on p < 1 with its package prefix
func (s *System) BlockScheduleGreedy(part *Partition, p int) *Schedule {
	return sched.BlockMapGreedy(part, p)
}

// WrapSchedule assigns column j to processor j mod p (the paper's
// baseline).
//
//repro:allow procguard -- thin wrapper; sched.WrapMap panics on p < 1 with its package prefix
func (s *System) WrapSchedule(p int) *Schedule {
	return sched.WrapMap(s.F, s.an.ElemWork, p)
}

// ------------------------------------------------------------ strategies

// StrategyOptions carries the per-strategy knobs of the pluggable mapping
// registry (partition grain/width for block-based strategies, block size
// for blockcyclic, base strategy and objective for refine, work slack
// for contigtotal). The zero value selects sensible defaults everywhere.
type StrategyOptions = strategy.Options

// Strategies returns the sorted names of every registered partitioning
// strategy (at least block, blockcyclic, blockgreedy, contiguous,
// contigtotal, rectilinear, refine, subcube and wrap).
func Strategies() []string { return strategy.Names() }

// RefineObjectives returns the sorted names of the objectives the refine
// strategy accepts (at least commspan, imbalance and traffic), derived
// from the strategy package's objective table.
func RefineObjectives() []string { return strategy.Objectives() }

// strategySys returns the strategy-subsystem view of this analysis
// (shared ops, element work and the goroutine-safe partition cache).
func (s *System) strategySys() *strategy.Sys { return s.an.Sys() }

// MapStrategy runs the named registered strategy, producing a schedule
// the traffic and makespan simulators evaluate like any other. Unknown
// names yield an error listing the registered strategies.
//
//repro:allow procguard -- thin wrapper; strategy.Map validates p and returns the error
func (s *System) MapStrategy(name string, p int, opts StrategyOptions) (*Schedule, error) {
	return strategy.Map(name, s.strategySys(), p, opts)
}

// StrategyTraffic simulates the data traffic of a strategy schedule,
// honoring relaxed partitions for block-granular strategies (the strategy
// analogue of TrafficPart).
func (s *System) StrategyTraffic(opts StrategyOptions, sc *Schedule) *TrafficResult {
	return strategy.Traffic(s.strategySys(), opts, sc)
}

// StrategyMakespan simulates dependency-delay execution of a strategy
// schedule: unit-block tasks for block-granular schedules, column tasks
// otherwise.
func (s *System) StrategyMakespan(opts StrategyOptions, sc *Schedule) MakespanResult {
	return strategy.Makespan(s.strategySys(), opts, sc)
}

// StrategyMakespanDynamic is StrategyMakespan with a dynamic
// critical-path-priority ready queue on each processor.
func (s *System) StrategyMakespanDynamic(opts StrategyOptions, sc *Schedule) MakespanResult {
	return strategy.MakespanDynamic(s.strategySys(), opts, sc)
}

// StrategyMakespanComm simulates dependency-delay execution of a strategy
// schedule with communication-aware task durations: each task is charged
// its compute work plus cm's cost for the non-local elements and messages
// StrategyFetchStats attributes to it. With a zero CommModel the result is
// identical to StrategyMakespan, which unifies the paper's traffic and
// load-balance metrics into one regression-testable time estimate.
func (s *System) StrategyMakespanComm(opts StrategyOptions, sc *Schedule, cm CommModel) MakespanResult {
	return strategy.MakespanComm(s.strategySys(), opts, sc, cm)
}

// StrategyMakespanCommDynamic is StrategyMakespanComm with a dynamic ready
// queue; with a zero CommModel it is identical to StrategyMakespanDynamic.
func (s *System) StrategyMakespanCommDynamic(opts StrategyOptions, sc *Schedule, cm CommModel) MakespanResult {
	return strategy.MakespanCommDynamic(s.strategySys(), opts, sc, cm)
}

// StrategyFetchStats attributes the schedule's non-local fetches to its
// makespan tasks (per unit block or per column): fetch volumes summing
// exactly to StrategyTraffic(...).Total, and consolidated message counts
// (one message per distinct source processor feeding a task).
func (s *System) StrategyFetchStats(opts StrategyOptions, sc *Schedule) *TaskComm {
	return strategy.FetchStats(s.strategySys(), opts, sc)
}

// RefineSchedule runs the refine strategy's greedy improvement pass on an
// existing schedule without re-running its base strategy (opts selects
// the objective — imbalance, traffic, or commspan with opts.Comm as the
// cost model — and the move budget; the input schedule is not modified).
func (s *System) RefineSchedule(opts StrategyOptions, sc *Schedule) (*Schedule, error) {
	return strategy.Refine(s.strategySys(), opts, sc)
}

// ------------------------------------------------------- 2D tile ownership

// Schedule2D assigns every lower-triangle tile of a shared diagonal
// interval structure to a processor — the 2D generalization of a column
// schedule, in which a block column may be split by rows across
// processors (see internal/part2d).
type Schedule2D = part2d.Schedule2D

// Traffic2DResult is the outcome of the tile-granular traffic simulation:
// the deduplicated total of the 1D simulator plus the per-tile fan-out
// (row-direction) and fan-in (column-direction) volume attribution, which
// sums to the total exactly.
type Traffic2DResult = part2d.TrafficResult

// Mapper2D is one 2D partitioning/mapping strategy of the part2d
// registry; new mappers register with part2d.Register2D and immediately
// appear in Strategies2D, cmd/sweep -kind tile2d and the Ext-T tables.
type Mapper2D = part2d.Mapper2D

// Strategies2D returns the sorted names of every registered 2D strategy
// (at least col2d, rect2d, rect2dcyclic and rect2dlpt).
func Strategies2D() []string { return part2d.Names2D() }

// LiftBases2D returns the column-granular 1D strategies the col2d bridge
// lifts into the 2D subsystem.
func LiftBases2D() []string { return part2d.LiftBases() }

// MapStrategy2D runs the named registered 2D strategy, producing a tile
// schedule for the 2D simulators. The col2d strategy lifts the 1D
// strategy named by opts.Base (default wrap), making every column-granular
// 1D mapper comparable in the 2D simulators; rect2d and its variants keep
// the tile structure the 1D rectilinear mapper flattens away.
//
//repro:allow procguard -- thin wrapper; part2d.Map2D validates p and returns the error
func (s *System) MapStrategy2D(name string, p int, opts StrategyOptions) (*Schedule2D, error) {
	return part2d.Map2D(name, s.strategySys(), p, opts)
}

// Lift2D converts a column-granular 1D schedule into the equivalent 2D
// tile schedule without re-running its strategy (the bridge col2d uses).
func (s *System) Lift2D(sc *Schedule, name string) (*Schedule2D, error) {
	return part2d.Lift(s.strategySys(), sc, name)
}

// Traffic2D simulates the tile-granular data traffic of a 2D schedule:
// the same deduplicated fetch-on-first-use model as Traffic, with every
// fetch attributed to the target tile that first required it and
// classified as fan-out (pair-update sources traveling along the target's
// row of tiles) or fan-in (sources and diagonals converging along the
// target's column of tiles). Fan-out plus fan-in equals the total.
func (s *System) Traffic2D(sc *Schedule2D) *Traffic2DResult {
	return part2d.Traffic(s.an.Ops, sc)
}

// Makespan2D simulates dependency-delay execution of a 2D schedule over
// the merged tile-segment task graph with static per-processor order. On
// a column-granular tiling (any col2d lift) it is bit-identical to
// StrategyMakespan on the lifted 1D schedule.
func (s *System) Makespan2D(sc *Schedule2D) MakespanResult {
	return part2d.Makespan(s.an.Ops, s.an.ElemWork, sc)
}

// Makespan2DDynamic is Makespan2D with a dynamic critical-path-priority
// ready queue on each processor.
func (s *System) Makespan2DDynamic(sc *Schedule2D) MakespanResult {
	return part2d.MakespanDynamic(s.an.Ops, s.an.ElemWork, sc)
}

// Makespan2DComm simulates dependency-delay execution of a 2D schedule
// with communication-aware task durations under cm, charging every
// tile-segment task its fetch volume and consolidated message count. With
// a zero CommModel it is identical to Makespan2D; on col2d lifts it is
// bit-identical to StrategyMakespanComm.
func (s *System) Makespan2DComm(sc *Schedule2D, cm CommModel) MakespanResult {
	return part2d.MakespanComm(s.an.Ops, s.an.ElemWork, sc, cm)
}

// Makespan2DCommDynamic is Makespan2DComm with the dynamic ready queue.
func (s *System) Makespan2DCommDynamic(sc *Schedule2D, cm CommModel) MakespanResult {
	return part2d.MakespanCommDynamic(s.an.Ops, s.an.ElemWork, sc, cm)
}

// MeasureOptions configures MeasureFactorize2D (kernel choice and the
// repeat-and-min count).
type MeasureOptions = exec.MeasureOptions

// Measurement is one wall-clock comparison between the serial
// factorization and the parallel 2D engine: fastest serial and parallel
// times, the measured speedup, the per-task real TaskEvents of the fastest
// run, and the (bit-identical) parallel factor.
type Measurement = exec.Measurement

// ParallelFactorize2D executes the numeric Cholesky factorization with one
// worker goroutine per processor over the merged tile-segment task graph of
// a 2D schedule — the same graph the Makespan2D* simulators predict. The
// returned values are bit-for-bit equal to Factorize (updates run in the
// serial chain order with identical association, so the result does not
// depend on how the workers interleave).
//
// Deprecated: use Plan.FactorizeParallel on a 2D plan, which returns a
// solvable Factor artifact instead of raw values.
func (s *System) ParallelFactorize2D(sc *Schedule2D) ([]float64, error) {
	nf, err := part2d.ParallelFactorize(s.Permuted, s.an.Ops, s.an.ElemWork, sc)
	if err != nil {
		return nil, err
	}
	return nf.Val, nil
}

// ParallelFactorize2DLDL is ParallelFactorize2D with the square-root-free
// LDLᵀ kernel, bit-for-bit equal to FactorizeLDL.
//
// Deprecated: use Plan.FactorizeParallel on a 2D plan with KernelLDL.
func (s *System) ParallelFactorize2DLDL(sc *Schedule2D) ([]float64, error) {
	nf, err := part2d.ParallelFactorizeLDL(s.Permuted, s.an.Ops, s.an.ElemWork, sc)
	if err != nil {
		return nil, err
	}
	return nf.Val, nil
}

// MeasureFactorize2D times the serial factorization against the parallel
// 2D engine on sc's task graph (repeat-and-min on both sides, bit-identity
// verified on every parallel run) and returns the wall-clock Measurement.
// Its Events aggregate through BuildRealProfile and feed the Chrome-trace
// and Gantt exporters directly.
func (s *System) MeasureFactorize2D(sc *Schedule2D, opts MeasureOptions) (*Measurement, error) {
	return part2d.Measure(s.Permuted, s.an.Ops, s.an.ElemWork, sc, opts)
}

// Traffic simulates the data traffic of a schedule under the paper's
// model: one unit per distinct non-local element fetched per processor.
// For block schedules over a relaxed partition use TrafficPart.
func (s *System) Traffic(sc *Schedule) *TrafficResult {
	return traffic.Simulate(s.an.Ops, sc)
}

// TrafficPart simulates traffic for a block schedule over the given
// partition, honoring relaxed (zero-padded) factors whose structure is a
// superset of the analysis factor.
func (s *System) TrafficPart(part *Partition, sc *Schedule) *TrafficResult {
	if part.F == s.F {
		return traffic.Simulate(s.an.Ops, sc)
	}
	return traffic.Simulate(model.NewOps(part.F), sc)
}

// BlockMakespan simulates execution with dependency delays for a
// block-mapped partition, refining the paper's 1/(1+A) efficiency bound.
func (s *System) BlockMakespan(part *Partition, sc *Schedule) MakespanResult {
	tasks := exec.BlockTasks(part, sc)
	return exec.SimulateMakespan(tasks, sc.P)
}

// WrapMakespan simulates execution with dependency delays for the wrap
// mapping (one task per column).
//
//repro:allow procguard -- thin wrapper; exec.ColumnTasks panics on p < 1 with its package prefix
func (s *System) WrapMakespan(p int) MakespanResult {
	tasks := exec.ColumnTasks(s.F, s.an.Ops, s.an.ElemWork, p)
	return exec.SimulateMakespan(tasks, p)
}

// BlockMakespanDynamic is BlockMakespan with a dynamic ready queue
// (critical-path priority) instead of static scan order on each
// processor.
func (s *System) BlockMakespanDynamic(part *Partition, sc *Schedule) MakespanResult {
	tasks := exec.BlockTasks(part, sc)
	return exec.SimulateMakespanDynamic(tasks, sc.P)
}

// SimulateDAG simulates execution of an arbitrary task DAG on p
// processors with static per-processor order (tasks must be topologically
// ordered by ID and carry their processor assignment).
//
//repro:allow procguard -- thin wrapper; the exec simulators panic on p < 1 with their package prefix
func SimulateDAG(tasks []Task, p int) MakespanResult {
	return exec.SimulateMakespan(tasks, p)
}

// SimulateDAGDynamic is SimulateDAG with a critical-path-priority ready
// queue on each processor.
//
//repro:allow procguard -- thin wrapper; the exec simulators panic on p < 1 with their package prefix
func SimulateDAGDynamic(tasks []Task, p int) MakespanResult {
	return exec.SimulateMakespanDynamic(tasks, p)
}

// CriticalPath returns the longest work-weighted path of a task DAG, the
// processor-independent lower bound on any schedule's makespan.
func CriticalPath(tasks []Task) int64 { return exec.CriticalPath(tasks) }

// Factorize computes the numeric Cholesky factor of the permuted matrix.
//
// Deprecated: use the staged pipeline (Plan.Factorize), which caches by
// (pattern, values, kernel) through a Cache.
func (s *System) Factorize() (*Cholesky, error) {
	return numeric.Factorize(s.Permuted, s.F)
}

// FactorizeLDL computes the square-root-free LDLᵀ factorization of the
// permuted matrix. It succeeds for symmetric indefinite matrices as long
// as no pivot vanishes, and its element-level dependency structure is
// identical to Cholesky's, so every partition and schedule applies
// unchanged (the paper's Section 5 adaptability claim).
//
// Deprecated: use the staged pipeline (Plan.Factorize with KernelLDL).
func (s *System) FactorizeLDL() (*LDL, error) {
	return numeric.FactorizeLDL(s.Permuted, s.F)
}

// ParallelFactorizeLDL is ParallelFactorize with the LDLᵀ kernel.
//
// Deprecated: use Plan.FactorizeParallel with KernelLDL.
func (s *System) ParallelFactorizeLDL(part *Partition, sc *Schedule) ([]float64, error) {
	nf, err := exec.ParallelFactorizeLDL(s.Permuted, part, sc)
	if err != nil {
		return nil, err
	}
	return nf.Val, nil
}

// ParallelFactorize executes the numeric factorization with one worker
// goroutine per simulated processor, synchronizing on the block dependency
// graph, and returns the factor values (aligned with F's structure).
//
// Deprecated: use Plan.FactorizeParallel on a block-granular 1D plan.
func (s *System) ParallelFactorize(part *Partition, sc *Schedule) ([]float64, error) {
	nf, err := exec.ParallelFactorize(s.Permuted, part, sc)
	if err != nil {
		return nil, err
	}
	return nf.Val, nil
}

// SolveParallel solves A·x = b with every numeric phase executed by
// worker goroutines over the given partition and schedule: block-parallel
// Cholesky factorization followed by parallel forward and backward
// triangular sweeps (the complete four-step pipeline of the paper's
// Section 2, distributed). x is returned in the original variable order.
//
// Deprecated: SolveParallel re-factorizes on every call. Build the plan
// once (Analysis.Plan), factor once (Plan.FactorizeParallel) and call
// Factor.SolveParallel per rhs.
func (s *System) SolveParallel(part *Partition, sc *Schedule, b []float64) ([]float64, error) {
	if len(b) != s.A.N {
		return nil, fmt.Errorf("repro: rhs length %d, want %d", len(b), s.A.N)
	}
	nf, err := exec.ParallelFactorize(s.Permuted, part, sc)
	if err != nil {
		return nil, err
	}
	chol := &numeric.Cholesky{F: nf.F, Val: nf.Val}
	pb := make([]float64, len(b))
	for k, old := range s.Order {
		pb[k] = b[old]
	}
	px, err := exec.ParallelSolve(chol, sc, pb)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	for k, old := range s.Order {
		x[old] = px[k]
	}
	return x, nil
}

// Solve solves A·x = b for the original (unpermuted) system, running the
// whole direct-method pipeline of Section 2.
//
// Deprecated: Solve re-factorizes on every call. Hold a staged Factor
// (Plan.Factorize via AnalyzePattern or a Cache) and call Factor.Solve,
// which is bit-identical and performs zero factorization work per call.
func (s *System) Solve(b []float64) ([]float64, error) {
	if len(b) != s.A.N {
		return nil, fmt.Errorf("repro: rhs length %d, want %d", len(b), s.A.N)
	}
	chol, err := s.Factorize()
	if err != nil {
		return nil, err
	}
	pb := make([]float64, len(b))
	for k, old := range s.Order {
		pb[k] = b[old]
	}
	px := chol.Solve(pb)
	x := make([]float64, len(b))
	for k, old := range s.Order {
		x[old] = px[k]
	}
	return x, nil
}

// ResidualNorm returns ‖A·x − b‖∞ / ‖b‖∞ for the original system.
func (s *System) ResidualNorm(x, b []float64) float64 {
	return numeric.ResidualNorm(s.A, x, b)
}

// ----------------------------------------------------------- generators

// LAP30 builds the paper's LAP30 problem (exact reproduction: the 9-point
// Laplacian on a 30x30 grid, 900 equations, 4322 lower nonzeros).
func LAP30() *Matrix { return gen.Lap30() }

// TestMatrices returns the five test problems of the paper's Table 1.
func TestMatrices() []TestMatrix { return gen.Suite() }

// BuildMatrix builds a suite matrix by name (case-insensitive), e.g.
// "LAP30" or "BUS1138".
func BuildMatrix(name string) (*Matrix, TestMatrix, error) { return gen.ByName(name) }

// Grid5 and Grid9 build 5-point and 9-point Laplacian grid problems.
func Grid5(rows, cols int) *Matrix { return gen.Grid5(rows, cols) }

// Grid9 builds the 9-point Laplacian on a rows x cols grid.
func Grid9(rows, cols int) *Matrix { return gen.Grid9(rows, cols) }

// FEGrid5 builds the 5-point finite-element grid of the paper's Figure 2
// (m = 5 gives the 41-unknown example).
func FEGrid5(m int) *Matrix { return gen.FEGrid5(m) }

// ----------------------------------------------------------- HB format

// ReadHB parses a Harwell-Boeing file (RSA or PSA).
func ReadHB(r io.Reader) (*Matrix, HBHeader, error) { return hbio.Read(r) }

// WriteHB writes a matrix in Harwell-Boeing format.
func WriteHB(w io.Writer, m *Matrix, title, key string) error {
	return hbio.Write(w, m, title, key)
}
