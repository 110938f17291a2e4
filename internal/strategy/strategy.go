// Package strategy is a pluggable registry of partitioning/mapping
// strategies for the sparse Cholesky factorization pipeline.
//
// The paper compares exactly two mapping schemes — the Section 3.4 block
// heuristic and the classical wrap (cyclic) column mapping — and the rest
// of the repository measures them with scheme-agnostic simulators (data
// traffic, load imbalance, dependency-delay makespan). This package
// decouples "how work is assigned to processors" from "how an assignment
// is evaluated": every strategy is a Mapper producing an ordinary
// sched.Schedule, so the existing simulators evaluate any registered
// scheme unchanged.
//
// Nine strategies ship with the registry:
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
// New strategies register themselves with Register (typically from an
// init function) and immediately become available to the repro API,
// cmd/sweep -kind strategy, cmd/paperbench -table strategy and the
// cross-strategy tables.
package strategy

import (
	"fmt"
	"slices"
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
	parts map[core.Options]*partEntry

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

type partEntry struct {
	part *core.Partition
	ops  *model.Ops // ops of part.F (== Sys.Ops unless relaxed)
	// groups are the units as traffic groups, built on first use.
	groupsOnce sync.Once
	groups     *traffic.Groups
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
		parts: make(map[core.Options]*partEntry),
	}
}

// Partition returns the (cached) unit-block partition for the given
// options.
func (s *Sys) Partition(opts core.Options) *core.Partition {
	return s.partition(opts).part
}

func (s *Sys) partition(opts core.Options) *partEntry {
	opts = opts.Normalized() // one cache entry per distinct partitioning
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.parts == nil {
		s.parts = make(map[core.Options]*partEntry)
	}
	pe, ok := s.parts[opts]
	if !ok {
		part := core.NewPartitionWork(s.F, opts, s.ElemWork)
		ops := s.Ops
		if part.F != s.F {
			// Relaxation padded the factor; simulators need its own ops.
			ops = model.NewOps(part.F)
		}
		pe = &partEntry{part: part, ops: ops}
		s.parts[opts] = pe
	}
	return pe
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
	// Values <= 0 select 0, i.e. only bottleneck-optimal splits.
	Slack float64
	// Beta2 weights per-cut message counts into the contigtotal
	// objective: the DP minimizes volume + Beta2 x messages, where a
	// block receives one message per distinct source column it fetches
	// across its left cut (the per-cut counts traffic.ColumnRefs
	// exposes). Zero (the default) minimizes pure volume; raising Beta2
	// never increases the optimal split's message count (a scalarization
	// exchange argument, regression-tested on LAP30).
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

// Mapper is one partitioning/mapping strategy. Map assigns the
// factorization work of sys to p processors and returns the schedule;
// the schedule's ElemProc must cover every nonzero of the factor the
// strategy worked on (sys.F, or the relaxed partition factor for
// block-based strategies).
type Mapper interface {
	Name() string
	Map(sys *Sys, p int, opts Options) (*sched.Schedule, error)
}

// Registry is a name → mapper table kept sorted by name, safe for
// concurrent use. The 1D strategies (Register, Lookup, Names, Map) live in
// one and part2d's 2D mappers in another; its zero value is empty.
type Registry[M interface{ Name() string }] struct {
	mu      sync.RWMutex
	names   []string // sorted
	mappers []M      // mappers[i] is registered as names[i]
}

// Register adds m under m.Name(). It panics on an empty name or a
// duplicate registration, mirroring database/sql.Register.
func (r *Registry[M]) Register(m M) {
	name := m.Name()
	r.mu.Lock()
	defer r.mu.Unlock()
	i, dup := slices.BinarySearch(r.names, name)
	if name == "" || dup {
		panic(fmt.Sprintf("strategy: %T registered under an empty or taken name %q", m, name))
	}
	r.names = slices.Insert(r.names, i, name)
	r.mappers = slices.Insert(r.mappers, i, m)
}

// Lookup returns the mapper registered under name.
func (r *Registry[M]) Lookup(name string) (M, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if i, ok := slices.BinarySearch(r.names, name); ok {
		return r.mappers[i], true
	}
	var none M
	return none, false
}

// Names returns the sorted names of all registered mappers.
func (r *Registry[M]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clone(r.names)
}

// Find is Lookup with an error for an unknown name: unknown, then the name
// and every registered one.
func (r *Registry[M]) Find(unknown, name string) (M, error) {
	m, ok := r.Lookup(name)
	if !ok {
		return m, fmt.Errorf("%s %q (registered: %s)", unknown, name, strings.Join(r.Names(), ", "))
	}
	return m, nil
}

var registry Registry[Mapper]

// Register adds a strategy to the registry (see Registry.Register).
func Register(m Mapper) { registry.Register(m) }

// Lookup returns the registered strategy with the given name.
func Lookup(name string) (Mapper, bool) { return registry.Lookup(name) }

// Names returns the sorted names of all registered strategies.
func Names() []string { return registry.Names() }

// Map runs the named strategy, returning a descriptive error when the
// name is unknown.
func Map(name string, sys *Sys, p int, opts Options) (*sched.Schedule, error) {
	if err := sched.CheckProcs("strategy", p); err != nil {
		return nil, err
	}
	m, err := registry.Find("strategy: unknown strategy", name)
	if err != nil {
		return nil, err
	}
	return m.Map(sys, p, opts)
}

// columnSchedule derives a schedule from a column-to-processor assignment
// (owner[j] is the processor of column j).
func columnSchedule(sys *Sys, p int, owner []int32) *sched.Schedule {
	f := sys.F
	s := &sched.Schedule{
		P:        p,
		ElemProc: make([]int32, f.NNZ()),
		Work:     make([]int64, p),
	}
	for j := 0; j < f.N; j++ {
		proc := owner[j]
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			s.ElemProc[q] = proc
			s.Work[proc] += sys.ElemWork[q]
		}
	}
	return s
}

// columnOwners recovers the column-to-processor assignment of a
// column-granular schedule (every element of a column shares one owner).
func columnOwners(f *symbolic.Factor, sc *sched.Schedule) []int32 {
	owner := make([]int32, f.N)
	for j := 0; j < f.N; j++ {
		owner[j] = sc.ElemProc[f.ColPtr[j]]
	}
	return owner
}

// checkPartMatch panics when a block-granular schedule does not belong
// to the partition selected by opts.Part (e.g. the schedule was mapped
// with different grain/width/relaxation options), the same loud failure
// traffic.FetchStats gives for schedule/partition mismatches.
func checkPartMatch(part *core.Partition, sc *sched.Schedule) {
	if len(sc.UnitProc) != len(part.Units) || len(sc.ElemProc) != part.F.NNZ() {
		panic(fmt.Sprintf(
			"strategy: schedule (units=%d, elems=%d) does not match the partition of opts.Part (units=%d, elems=%d); evaluate with the same Options the schedule was mapped with",
			len(sc.UnitProc), len(sc.ElemProc), len(part.Units), part.F.NNZ()))
	}
}

// Traffic simulates the data traffic of a strategy schedule (what
// pipeline.Plan.Traffic runs for a 1D plan), over the ops of the
// partition's own factor for a block-granular schedule (relaxation pads
// it). opts must be the Options the schedule was mapped with.
func Traffic(sys *Sys, opts Options, sc *sched.Schedule) *traffic.Result {
	ops := sys.Ops
	if sc.UnitProc != nil {
		pe := sys.partition(opts.Part)
		checkPartMatch(pe.part, sc)
		ops = pe.ops
	}
	return traffic.Simulate(ops, sc)
}

// trafficGroups returns the traffic groups of refine's movables for sc —
// the unit blocks of opts.Part's partition for a block-granular schedule,
// the columns otherwise. They depend on structure only, so they are built
// once per Sys and serve every processor count and every start.
func (s *Sys) trafficGroups(opts Options, sc *sched.Schedule) *traffic.Groups {
	if sc.UnitProc != nil {
		pe := s.partition(opts.Part)
		pe.groupsOnce.Do(func() {
			boxes := make([]traffic.Box, len(pe.part.Units))
			for i, u := range pe.part.Units {
				boxes[i] = traffic.Box{Col0: u.ColLo, Col1: u.ColHi + 1, Row0: u.RowLo, Row1: u.RowHi + 1}
			}
			pe.groups = traffic.NewGroups(pe.ops, boxes)
		})
		return pe.groups
	}
	s.mu.Lock()
	defer s.mu.Unlock()
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
// tasks for block-granular schedules, column tasks otherwise. opts must be
// the Options the schedule was mapped with.
func Tasks(sys *Sys, opts Options, sc *sched.Schedule) []exec.Task {
	if sc.UnitProc != nil {
		part := sys.Partition(opts.Part)
		checkPartMatch(part, sc)
		return exec.BlockTasks(part, sc)
	}
	owner := columnOwners(sys.F, sc)
	return exec.ColumnTasksMapped(sys.F, sys.Ops, sys.ElemWork, owner)
}

// FetchStats attributes the schedule's non-local fetches to its makespan
// tasks (per unit block or per column) with consolidated message counts,
// honoring relaxed partitions like Traffic does. The volumes partition
// Traffic(sys, opts, sc).Total exactly, which is what lets exec.Simulate
// under a CommModel charge every fetch exactly once. opts must be the Options the
// schedule was mapped with.
func FetchStats(sys *Sys, opts Options, sc *sched.Schedule) *traffic.TaskComm {
	if sc.UnitProc != nil {
		pe := sys.partition(opts.Part)
		checkPartMatch(pe.part, sc)
		return traffic.FetchStats(pe.part, pe.ops, sc)
	}
	return traffic.FetchStatsColumns(sys.Ops, sc)
}
