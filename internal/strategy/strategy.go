// Package strategy is the table of partitioning/mapping strategies for
// the sparse Cholesky factorization pipeline.
//
// The paper compares exactly two mapping schemes — the Section 3.4 block
// heuristic and the classical wrap (cyclic) column mapping — and the rest
// of the repository measures them with scheme-agnostic simulators (data
// traffic, load imbalance, dependency-delay makespan). This package
// decouples "how work is assigned to processors" from "how an assignment
// is evaluated": every strategy is a function producing an ordinary
// sched.Schedule, so the existing simulators evaluate any scheme
// unchanged.
//
// Nine strategies make up the table:
//
//   - block: the paper's Section 3.4 unit-block allocation heuristic.
//   - blockgreedy: its work-aware variant (every fallback decision picks
//     the least-loaded processor; see sched.BlockMapGreedy).
//   - wrap: the classical wrap mapping, column j -> processor j mod P.
//   - contiguous: work-balanced contiguous column blocks with the optimal
//     bottleneck (minimal maximum block work) found by binary search over
//     a greedy feasibility probe on prefix work sums, in the spirit of
//     Ahrens, "Contiguous Graph Partitioning For Optimal Total Or
//     Bottleneck Communication" (2020).
//   - contigtotal: contiguous column blocks minimizing the *total*
//     communication volume (Ahrens 2020's other objective) by dynamic
//     programming over candidate boundaries with the fetch-attribution
//     cost oracle of traffic.ColumnRefs, subject to every block's work
//     staying within (1 + Options.Slack) of the optimal bottleneck.
//   - rectilinear: symmetric rectilinear block partitioning (Yasar et
//     al. 2020, "On Symmetric Rectilinear Matrix Partitioning"): one
//     diagonal interval structure shared by rows and columns, found by
//     binary search over a greedy probe that bounds the work of every
//     induced 2D tile; each diagonal block's columns go to one
//     processor, so the 1D schedule inherits the symmetric structure.
//   - blockcyclic: column blocks of a tunable size dealt cyclically to
//     processors, interpolating between wrap (block size 1) and
//     contiguous-like locality (large blocks).
//   - subcube: subtree-to-subcube allocation over the elimination tree
//     (proportional mapping): the shared top separator columns are
//     wrap-mapped across the whole processor set, which recursively splits
//     over sibling subtrees proportionally to subtree work until single
//     processors own whole subtrees.
//   - refine: a greedy local-refinement pass (Pulp-style) over any base
//     strategy's schedule, moving boundary units between processors while
//     the move strictly improves the chosen objective — the paper's load
//     imbalance factor A, the simulated data traffic, or the unified
//     comm-aware dynamic makespan ("commspan").
//
// A new strategy is one entry of the table in this package's init (a
// name and an unexported function; Map validates p before calling it)
// and is immediately available to the repro API, cmd/sweep -kind
// strategy, cmd/paperbench -table strategy and the cross-strategy tables.
package strategy

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

// Sys bundles the analysis products of one matrix that mappers consume:
// the symbolic factor, its operation structure and the per-element work
// vector. It also caches partitions per option set so block-based
// strategies (and refinement passes over them) share one partitioning.
type Sys struct {
	F        *symbolic.Factor
	Ops      *model.Ops
	ElemWork []int64
	// Total is the summed element work (the paper's Wtot).
	Total int64

	mu    sync.Mutex
	parts map[core.Options]*core.Partition
	// unitGroups are the unit blocks of each partition refine has scored,
	// as traffic groups, keyed by the partition itself.
	unitGroups map[*core.Partition]*traffic.Groups

	// Column views of the analysis, built by the first mapper that asks
	// (never by NewSys: a Sys that only ever plans wrap holds neither) and
	// read-only from then on.
	colWork   []int64
	colRefs   [][]traffic.ColRef
	colGroups *traffic.Groups
	// rectCuts memoizes RectilinearCuts per processor count, shared the
	// same way.
	rectCuts map[int][]int
}

// NewSys builds a Sys from an analyzed factor. ops and elemWork may be
// nil, in which case they are recomputed from f.
func NewSys(f *symbolic.Factor, ops *model.Ops, elemWork []int64) *Sys {
	if ops == nil {
		ops = model.NewOps(f)
	}
	if elemWork == nil {
		elemWork = model.ElementWork(ops)
	}
	return &Sys{
		F: f, Ops: ops, ElemWork: elemWork,
		Total: model.TotalWork(elemWork),
		parts: make(map[core.Options]*core.Partition),
	}
}

// Partition returns the (cached) unit-block partition for the given
// options.
func (s *Sys) Partition(opts core.Options) *core.Partition {
	opts = opts.Normalized() // one cache entry per distinct partitioning
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.parts == nil {
		s.parts = make(map[core.Options]*core.Partition)
	}
	part, ok := s.parts[opts]
	if !ok {
		part = core.NewPartitionWork(s.F, opts, s.ElemWork)
		s.parts[opts] = part
	}
	return part
}

// ColumnWork returns the per-column work vector of the analysis factor,
// computed once per Sys. The slice is shared by every caller and must not
// be modified.
func (s *Sys) ColumnWork() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.colWork == nil {
		s.colWork = model.ColumnWork(s.F, s.ElemWork)
	}
	return s.colWork
}

// columnRefs returns traffic.ColumnRefs of the analysis ops, computed once
// per Sys and shared read-only like ColumnWork.
func (s *Sys) columnRefs() [][]traffic.ColRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.colRefs == nil {
		s.colRefs = traffic.ColumnRefs(s.Ops)
	}
	return s.colRefs
}

// RectilinearCuts returns RectilinearCuts(s.Ops, s.ElemWork, p), computed
// once per Sys and p: the 1D rectilinear mapper and the three rect2d
// mappers of part2d all start from these cuts. The slice is shared by
// every caller and must not be modified.
func (s *Sys) RectilinearCuts(p int) []int {
	sched.MustProcs("strategy", p)
	s.mu.Lock()
	defer s.mu.Unlock()
	cuts, ok := s.rectCuts[p]
	if !ok {
		if s.rectCuts == nil {
			s.rectCuts = make(map[int][]int)
		}
		cuts = RectilinearCuts(s.Ops, s.ElemWork, p)
		s.rectCuts[p] = cuts
	}
	return cuts
}

// Options carries the per-strategy knobs. The zero value selects sensible
// defaults everywhere, so Options{} is always a valid argument.
type Options struct {
	// Part holds the partitioner knobs (grain, minimum cluster width,
	// relaxation) used by the block-based strategies and by refinement
	// over them. The zero value selects the paper's defaults.
	Part core.Options
	// BlockSize is the column-block size of the blockcyclic strategy
	// (<= 0 selects the default of 4).
	BlockSize int
	// Base names the strategy whose schedule the refine strategy starts
	// from (empty selects "block").
	Base string
	// Objective selects what refine improves: "imbalance" (the paper's
	// load-imbalance factor A; the default), "traffic" (the simulated
	// data traffic), or "commspan" (the unified comm-aware dynamic
	// makespan under the Comm model).
	Objective string
	// MaxMoves caps the number of refinement moves considered (<= 0
	// selects a per-objective default).
	MaxMoves int
	// Slack is the relative work slack of the contigtotal strategy:
	// every block's work is bounded by (1 + Slack) times the optimal
	// contiguous bottleneck, so larger values widen the feasible set the
	// total-traffic DP minimizes over (never increasing the optimum).
	// Values <= 0 select 0, i.e. only bottleneck-optimal splits; NaN is
	// an error.
	Slack float64
	// Beta2 weights per-cut message counts into the contigtotal
	// objective: the DP minimizes volume + Beta2 x messages, where a
	// block receives one message per distinct source column it fetches
	// across its left cut (the per-cut counts traffic.ColumnRefs
	// exposes). Zero (the default) minimizes pure volume; raising Beta2
	// never increases the optimal split's message count (a scalarization
	// exchange argument, regression-tested on LAP30). NaN and infinities
	// are errors.
	Beta2 float64
	// Comm is the communication-time model the "commspan" refine
	// objective minimizes the dynamic makespan under. The zero value
	// charges nothing, making commspan minimize the compute-only dynamic
	// span.
	Comm exec.CommModel
	// Search, when non-nil, collects search telemetry (trial moves,
	// accept/reject counts, the objective trajectory) from the strategies
	// that search: the refine hill-climbs and the contigtotal DP. Mapping
	// results are unaffected; nil (the default) records nothing.
	Search *obs.SearchTelemetry
}

// Registry is a name → function table, sorted by name and fixed once
// built: the 1D strategies (Names, Map), part2d's 2D mappers and refine's
// objectives are one each.
type Registry[F any] []struct {
	Name string
	Fn   F
}

// Names returns the sorted names of the table's entries.
func (r Registry[F]) Names() []string {
	names := make([]string, len(r))
	for i, e := range r {
		names[i] = e.Name
	}
	return names
}

// Find returns the function registered under name, or an error naming
// unknown, then name and every registered name.
func (r Registry[F]) Find(unknown, name string) (F, error) {
	for _, e := range r {
		if e.Name == name {
			return e.Fn, nil
		}
	}
	var none F
	return none, fmt.Errorf("%s %q (registered: %s)", unknown, name, strings.Join(r.Names(), ", "))
}

// mapFunc is one 1D strategy: it assigns the factorization work of sys to
// p processors, p already validated by Map.
type mapFunc func(sys *Sys, p int, opts Options) (*sched.Schedule, error)

// strategies is the 1D strategy table. It is filled in init, not by a
// literal: refine reaches its base through Map, which reads the table.
var strategies Registry[mapFunc]

func init() {
	strategies = Registry[mapFunc]{
		{"block", func(sys *Sys, p int, opts Options) (*sched.Schedule, error) {
			return sched.BlockMap(sys.Partition(opts.Part), p), nil
		}},
		{"blockcyclic", blockCyclic},
		{"blockgreedy", func(sys *Sys, p int, opts Options) (*sched.Schedule, error) {
			return sched.BlockMapGreedy(sys.Partition(opts.Part), p), nil
		}},
		{"contigtotal", contigTotal},
		{"contiguous", contiguous},
		{"rectilinear", rectilinear},
		{"refine", refine},
		{"subcube", subcube},
		{"wrap", func(sys *Sys, p int, _ Options) (*sched.Schedule, error) {
			return sched.WrapMap(sys.F, sys.ElemWork, p), nil
		}},
	}
}

// Names returns the sorted names of all 1D strategies.
func Names() []string { return strategies.Names() }

// Map runs the named strategy, returning a descriptive error when the
// name is unknown, p is below one, opts.Slack is NaN, opts.Beta2 NaN or
// infinite, opts.Part.RelaxZeros NaN, or a term of opts.Comm NaN,
// infinite or negative (commspan would search on garbage costs). The
// schedule is column-granular, built by sched.ColumnMap
// over sys.F, or block-granular, built over sys.Partition(opts.Part)
// (whose factor relaxation may pad). Either way it carries the structure
// it assigns (Schedule.F, and Schedule.Part for unit blocks), which is all
// Tasks, FetchStats, Traffic and Refine read of it.
func Map(name string, sys *Sys, p int, opts Options) (*sched.Schedule, error) {
	if err := sched.CheckProcs("strategy", p); err != nil {
		return nil, err
	}
	if math.IsNaN(opts.Slack) || math.IsNaN(opts.Beta2) || math.IsInf(opts.Beta2, 0) {
		return nil, fmt.Errorf("strategy: invalid Slack %g or Beta2 %g", opts.Slack, opts.Beta2)
	}
	if math.IsNaN(opts.Part.RelaxZeros) {
		return nil, fmt.Errorf("strategy: invalid RelaxZeros %g", opts.Part.RelaxZeros)
	}
	if err := opts.Comm.Valid(); err != nil {
		return nil, fmt.Errorf("strategy: %w", err)
	}
	m, err := strategies.Find("strategy: unknown strategy", name)
	if err != nil {
		return nil, err
	}
	return m(sys, p, opts)
}

// Traffic simulates the data traffic of a strategy schedule (what
// pipeline.Plan.Traffic runs for a 1D plan): traffic.Simulate over the
// factor the schedule assigns, padded for a relaxed block schedule. sys
// and opts are unread; the benchmark adapter names this signature.
func Traffic(sys *Sys, opts Options, sc *sched.Schedule) *traffic.Result {
	return traffic.Simulate(sc)
}

// trafficGroups returns the traffic groups of refine's movables for sc —
// the unit blocks of its partition for a block-granular schedule, the
// columns otherwise. They depend on structure only, so they are built
// once per Sys and partition and serve every processor count and every
// start.
func (s *Sys) trafficGroups(sc *sched.Schedule) *traffic.Groups {
	s.mu.Lock()
	defer s.mu.Unlock()
	if part := sc.Part; part != nil {
		g := s.unitGroups[part]
		if g == nil {
			boxes := make([]traffic.Box, len(part.Units))
			for i, u := range part.Units {
				boxes[i] = traffic.Box{Col0: u.ColLo, Col1: u.ColHi + 1, Row0: u.RowLo, Row1: u.RowHi + 1}
			}
			g = traffic.NewGroups(model.NewOps(part.F), boxes)
			if s.unitGroups == nil {
				s.unitGroups = make(map[*core.Partition]*traffic.Groups)
			}
			s.unitGroups[part] = g
		}
		return g
	}
	if s.colGroups == nil {
		boxes := make([]traffic.Box, s.F.N)
		for j := range boxes {
			boxes[j] = traffic.Box{Col0: j, Col1: j + 1, Row0: j, Row1: s.F.N}
		}
		s.colGroups = traffic.NewGroups(s.Ops, boxes)
	}
	return s.colGroups
}

// Tasks builds the makespan task graph of a strategy schedule: unit-block
// tasks over its partition for a block-granular schedule, column tasks of
// sys' analysis otherwise. opts is unread; the benchmark adapter names
// this signature.
func Tasks(sys *Sys, opts Options, sc *sched.Schedule) []exec.Task {
	if sc.Part != nil {
		return exec.BlockTasks(sc.Part, sc)
	}
	return exec.ColumnTasksMapped(sys.F, sys.Ops, sys.ElemWork, sc.ColProc)
}

// FetchStats attributes the schedule's non-local fetches to its makespan
// tasks (per unit block or per column) with consolidated message counts:
// traffic.FetchStats. The volumes partition Traffic's total exactly, which
// is what lets exec.Simulate under a CommModel charge every fetch exactly
// once. sys and opts are unread; the benchmark adapter names this
// signature.
func FetchStats(sys *Sys, opts Options, sc *sched.Schedule) *traffic.TaskComm {
	return traffic.FetchStats(sc)
}
