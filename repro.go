// Package repro is a Go reproduction of Venugopal & Naik, "Effects of
// Partitioning and Scheduling Sparse Matrix Factorization on Communication
// and Load Balance" (Supercomputing 1991; ICASE Report 91-80).
//
// It provides a block-based, automatic partitioner and scheduler for
// sparse Cholesky factorization on (simulated) distributed-memory
// machines, the classical wrap-mapped column baseline, and the simulation
// machinery that measures what the paper measures: data traffic and load
// imbalance. The pipeline
//
//	matrix -> MMD ordering -> symbolic factorization -> clusters
//	       -> unit blocks -> dependencies -> schedule -> simulate
//
// is staged into three immutable artifacts (see staged.go): an Analysis
// of the sparsity pattern, a Plan that maps it onto P processors, and a
// Factor holding numeric values. A Plan is the paper's unit of comparison
// — one schedule with its task graph and fetch attribution — and answers
// both of the paper's questions itself:
//
//	an, _ := repro.AnalyzePattern(repro.LAP30())
//	opts := repro.StrategyOptions{Part: repro.PartitionOptions{Grain: 25, MinClusterWidth: 4}}
//	block, _ := an.Plan("block", 16, opts)
//	wrap, _ := an.Plan("wrap", 16, opts)
//	fmt.Println(block.TrafficTotal(), "vs", wrap.TrafficTotal())    // Section 4.1
//	fmt.Println(block.S1.Imbalance(), "vs", wrap.S1.Imbalance())    // Section 4.2
//	fmt.Println(block.Simulate(repro.SimOptions{}).Efficiency)      // dependency delays
//
// "block" and "wrap" are two names of a pluggable strategy registry
// (internal/strategy) that also maps the same factorization with
// contiguous optimal-bottleneck column blocks, total-communication-optimal
// contiguous blocks, symmetric rectilinear diagonal blocks, block-cyclic
// layouts, subtree-to-subcube allocation over the elimination tree, or a
// greedy refinement pass over any base scheme; Strategies lists them. A
// second registry (internal/part2d, Strategies2D) assigns 2D tiles of a
// shared diagonal interval structure instead of columns:
//
//	t2, _ := an.Plan2D("rect2d", 16, repro.StrategyOptions{})
//	fmt.Println(t2.Traffic2D().TotalFanOut(), t2.Simulate(repro.SimOptions{Dynamic: true, Comm: cm}).Makespan)
//
// Every simulation variant is one call: SimOptions picks static or dynamic
// per-processor order, an optional CommModel charged against the plan's
// own fetch attribution, and an optional tracing Probe. Numeric work goes
// through the same handle — pl.Factorize / pl.FactorizeParallel return a
// Factor whose Solve methods never re-factorize.
//
// The subsystems live in internal packages (sparse storage, generators,
// Harwell-Boeing I/O, MMD ordering, symbolic and numeric factorization,
// the partitioner core, schedulers, the two mapping registries, the
// traffic model and the simulator); this package re-exports the stable
// surface needed to reproduce and extend the paper's experiments.
package repro

import (
	"io"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/hbio"
	"repro/internal/numeric"
	"repro/internal/order"
	"repro/internal/part2d"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/strategy"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

// Matrix is a sparse symmetric matrix stored as its lower triangle.
type Matrix = sparse.Matrix

// SymbolicFactor is the symbolic structure of a Cholesky factor (an
// Analysis' F). The name Factor denotes the numeric-stage artifact of the
// staged pipeline; see staged.go.
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

// SimOptions selects the variant of Simulate and Plan.Simulate: static or
// Dynamic per-processor order, an optional CommModel with the per-task
// fetch volumes and message counts it prices, and an optional tracing
// Probe. The zero value is the compute-only static simulation.
type SimOptions = exec.SimOptions

// CommModel is the linear communication-time model of the simulation:
// Alpha work units per fetched non-local element (bandwidth) plus Beta
// work units per consolidated message (latency) plus Gamma per task. The
// zero value charges nothing and reproduces the compute-only run exactly.
type CommModel = exec.CommModel

// TaskComm attributes a schedule's communication to its tasks (a Plan's
// Fetch): per-task fetch volumes (summing to the traffic total) and
// consolidated message counts.
type TaskComm = traffic.TaskComm

// Task is one node of a generic scheduled task DAG. The paper's Section 5
// notes the methodology "can be generalized to computations that can be
// represented as directed acyclic graphs"; the simulation machinery is
// exposed for such use (see examples/wavefront and Simulate).
type Task = exec.Task

// HBHeader identifies a Harwell-Boeing file.
type HBHeader = hbio.Header

// TestMatrix describes one of the paper's test problems.
type TestMatrix = gen.TestMatrix

// MMDOrder computes the multiple-minimum-degree ordering (the paper's
// choice for every experiment).
func MMDOrder(a *Matrix) []int { return order.MMD(a) }

// NDOrder computes a nested-dissection ordering (leaf pieces of at most
// leafSize ordered by minimum degree; leafSize <= 0 selects the default).
func NDOrder(a *Matrix, leafSize int) []int { return order.NestedDissection(a, leafSize) }

// PostOrderPerm composes an ordering with a postordering of its
// elimination tree: identical fill, contiguous subtrees (which is what
// cluster relaxation needs to find merges).
func PostOrderPerm(a *Matrix, perm []int) ([]int, error) {
	return symbolic.PostOrderPerm(a, perm)
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

// ------------------------------------------------------- 2D tile ownership

// Schedule2D assigns every lower-triangle tile that holds a factor nonzero,
// of a shared diagonal interval structure, to a processor — the 2D
// generalization of a column
// schedule, in which a block column may be split by rows across
// processors (see internal/part2d).
type Schedule2D = part2d.Schedule2D

// Traffic2DResult is the outcome of the tile-granular traffic simulation:
// the deduplicated total of the 1D simulator plus the per-tile fan-out
// (row-direction) and fan-in (column-direction) volume attribution, which
// sums to the total exactly.
type Traffic2DResult = part2d.TrafficResult

// Strategies2D returns the sorted names of every registered 2D strategy
// (at least col2d, rect2d, rect2dcyclic and rect2dlpt).
func Strategies2D() []string { return part2d.Names2D() }

// LiftBases2D returns the column-granular 1D strategies the col2d bridge
// lifts into the 2D subsystem.
func LiftBases2D() []string { return part2d.LiftBases() }

// MeasureOptions configures Plan.Measure (kernel choice and the
// repeat-and-min count).
type MeasureOptions = exec.MeasureOptions

// Measurement is one wall-clock comparison between the serial
// factorization and a plan's compiled parallel program: fastest serial and parallel
// times, the measured speedup, the per-task real TaskEvents of the fastest
// run, and the (bit-identical) parallel factor.
type Measurement = exec.Measurement

// Simulate runs the dependency-delay simulation of an arbitrary task DAG
// on p processors (every task's predecessors earlier in the slice, by
// index, and each task carrying its processor assignment); o selects static or dynamic per-processor
// order, communication charges and tracing. Plan.Simulate is this call on
// a plan's own task graph and fetch attribution.
func Simulate(tasks []Task, p int, o SimOptions) MakespanResult {
	return exec.Simulate(tasks, p, o)
}

// CriticalPath returns the longest work-weighted path of a task DAG, the
// processor-independent lower bound on any schedule's makespan.
func CriticalPath(tasks []Task) int64 { return exec.CriticalPath(tasks) }

// ResidualNorm returns ‖A·x − b‖∞ / ‖b‖∞ for the system A·x = b.
func ResidualNorm(a *Matrix, x, b []float64) float64 {
	return numeric.ResidualNorm(a, x, b)
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
