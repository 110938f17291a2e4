package pipeline

import (
	"fmt"
	"sync"

	"repro/internal/artifact"
	"repro/internal/exec"
	"repro/internal/part2d"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/strategy"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

// Plan is the mapping-stage artifact: one strategy's assignment of the
// analyzed factorization to P processors, plus the derived products the
// simulators and the parallel engines consume — the makespan task graph
// and the per-task fetch attribution. Exactly one of S1 (1D column/block
// schedule) and S2 (2D tile schedule) is non-nil.
type Plan struct {
	An       *Analysis
	Strategy string
	P        int
	Opts     strategy.Options
	S1       *sched.Schedule
	S2       *part2d.Schedule2D
	// Tasks is the makespan task graph of the schedule and Fetch its
	// fetch attribution (volumes summing to the traffic total, plus
	// consolidated message counts).
	Tasks []exec.Task
	Fetch *traffic.TaskComm
	// Key content-addresses this artifact: the analysis key plus the
	// strategy name, processor count and every mapping-relevant option.
	Key artifact.Key

	// elemTask maps factor elements to task IDs (2D plans only).
	elemTask []int32
	// prog is the plan compiled for the exact-serial-order engine, built
	// on the first parallel factorization and shared by every later one.
	progOnce sync.Once
	prog     *exec.Program
	progErr  error
	// sweeps are the compiled parallel solves (plans persist, factors
	// churn), one per structure a Factor of this plan can carry: the
	// analysis factor, and the padded one of a relaxed block plan.
	sweeps [2]struct {
		once sync.Once
		prog *exec.SolveProgram
		err  error
	}
}

// hashOptions mixes every mapping-relevant field of opts into h.
// Options.Search is telemetry, not a mapping parameter, and is excluded;
// Part is normalized first so option sets that select the same partition
// share a key.
func hashOptions(h *artifact.Hasher, opts strategy.Options) {
	po := opts.Part.Normalized()
	h.I64(int64(po.Grain))
	h.I64(int64(po.MinClusterWidth))
	h.F64(po.RelaxZeros)
	h.I64(int64(opts.BlockSize))
	h.Str(opts.Base)
	h.Str(opts.Objective)
	h.I64(int64(opts.MaxMoves))
	h.F64(opts.Slack)
	h.F64(opts.Beta2)
	h.F64(opts.Comm.Alpha)
	h.F64(opts.Comm.Beta)
}

// PlanKey returns the content address of the plan (name, p, opts) would
// build from this analysis; dim2 selects the 2D registry. Computing the
// key never runs the mapper, which is what lets a cache decide hit/miss
// first. An invalid P has no plan and therefore no address: PlanKey
// panics, and the error-returning entry points validate before keying.
func (an *Analysis) PlanKey(name string, p int, opts strategy.Options, dim2 bool) artifact.Key {
	sched.MustProcs("pipeline", p)
	h := artifact.NewHasher("plan")
	h.Key(an.Key)
	if dim2 {
		h.Str("2d")
	} else {
		h.Str("1d")
	}
	h.Str(name)
	h.I64(int64(p))
	hashOptions(h, opts)
	return h.Sum()
}

// Plan maps the analysis with the named 1D strategy and derives the task
// graph and fetch stats the downstream stages need.
func (an *Analysis) Plan(name string, p int, opts strategy.Options) (*Plan, error) {
	if err := sched.CheckProcs("pipeline", p); err != nil {
		return nil, err
	}
	sc, err := strategy.Map(name, an.sys, p, opts)
	if err != nil {
		return nil, err
	}
	return &Plan{
		An: an, Strategy: name, P: p, Opts: opts, S1: sc,
		Tasks: strategy.Tasks(an.sys, opts, sc),
		Fetch: strategy.FetchStats(an.sys, opts, sc),
		Key:   an.PlanKey(name, p, opts, false),
	}, nil
}

// Plan2D maps the analysis with the named 2D strategy from the part2d
// registry.
func (an *Analysis) Plan2D(name string, p int, opts strategy.Options) (*Plan, error) {
	if err := sched.CheckProcs("pipeline", p); err != nil {
		return nil, err
	}
	s2, err := part2d.Map2D(name, an.sys, p, opts)
	if err != nil {
		return nil, err
	}
	tasks, elemTask := part2d.Tasks(an.Ops, an.ElemWork, s2)
	return &Plan{
		An: an, Strategy: name, P: p, Opts: opts, S2: s2,
		Tasks:    tasks,
		Fetch:    part2d.FetchStats(an.Ops, s2, len(tasks), elemTask),
		Key:      an.PlanKey(name, p, opts, true),
		elemTask: elemTask,
	}, nil
}

// Is2D reports whether the plan carries a 2D tile schedule.
func (pl *Plan) Is2D() bool { return pl.S2 != nil }

// TrafficTotal returns the simulated data-traffic total of the plan's
// schedule (the fetch volumes partition it exactly).
func (pl *Plan) TrafficTotal() int64 { return pl.Fetch.TotalVol() }

// Traffic runs the full data-traffic simulation of the plan's schedule —
// per-processor totals and the processor-pair matrix behind TrafficTotal —
// honoring the relaxed partition of a block-granular plan. A 2D plan is
// simulated over its derived element ownership.
func (pl *Plan) Traffic() *traffic.Result {
	if pl.S2 != nil {
		return traffic.Simulate(pl.An.Ops, pl.S2.Schedule())
	}
	return strategy.Traffic(pl.An.sys, pl.Opts, pl.S1)
}

// Traffic2D runs the tile-granular traffic simulation of a 2D plan: the
// same deduplicated total, attributed per tile and split into fan-out
// (row-direction) and fan-in (column-direction) volume. It is nil for a 1D
// plan, which has no tiling.
func (pl *Plan) Traffic2D() *part2d.TrafficResult {
	if pl.S2 == nil {
		return nil
	}
	return part2d.Traffic(pl.An.Ops, pl.S2)
}

// Simulate runs the dependency-delay simulation of the plan's task graph
// on its P processors. o picks the variant (o.Dynamic, o.Comm, o.Probe);
// o.Vol and o.Msgs are always the plan's own fetch attribution, so a
// non-zero o.Comm charges every fetch of the schedule exactly once.
func (pl *Plan) Simulate(o exec.SimOptions) exec.SimResult {
	o.Vol, o.Msgs = pl.Fetch.Vol, pl.Fetch.Msgs
	return exec.Simulate(pl.Tasks, pl.P, o)
}

// Makespan is Simulate with static per-processor order and no
// communication charged.
func (pl *Plan) Makespan() exec.SimResult { return pl.Simulate(exec.SimOptions{}) }

// MakespanComm is Makespan with communication-aware task durations under
// cm.
func (pl *Plan) MakespanComm(cm exec.CommModel) exec.SimResult {
	return pl.Simulate(exec.SimOptions{Comm: cm})
}

// Measure times the serial factorization of a against the plan's compiled
// program (repeat-and-min on both sides, bit-identity verified on every
// parallel run) and returns the wall-clock Measurement; its Events pair
// with Tasks and Fetch in a calibration fit. The serial side of a relaxed
// block plan runs over the plan's zero-padded structure, like the program.
func (pl *Plan) Measure(a *sparse.Matrix, opts exec.MeasureOptions) (*exec.Measurement, error) {
	pg, err := pl.program()
	if err != nil {
		return nil, err
	}
	pm, err := pl.An.PermutedWithValues(a)
	if err != nil {
		return nil, err
	}
	return pg.Measure(pm, opts)
}

// program returns the plan compiled for the exact-serial-order engine:
// the tile-segment graph of a 2D plan, the column graph of a
// column-granular 1D plan (task j owns exactly column j), or the
// unit-block graph of a block-granular one over its partition's factor.
func (pl *Plan) program() (*exec.Program, error) {
	pl.progOnce.Do(func() {
		switch {
		case pl.S2 != nil:
			pl.prog, pl.progErr = exec.Compile(pl.An.F, pl.P, pl.Tasks, pl.elemTask)
		case pl.S1.UnitProc != nil:
			pl.prog, pl.progErr = exec.CompileBlocks(pl.An.sys.Partition(pl.Opts.Part), pl.S1)
		default:
			pl.prog, pl.progErr = exec.Compile(pl.An.F, pl.P, pl.Tasks, pl.An.F.ColIndex())
		}
	})
	return pl.prog, pl.progErr
}

// solveProgram returns the sweeps over f — the structure of one of this
// plan's Factors — compiled for the plan's P workers on first use.
func (pl *Plan) solveProgram(f *symbolic.Factor) (*exec.SolveProgram, error) {
	sw := &pl.sweeps[0]
	if f != pl.An.F {
		if pl.S1 == nil || f != pl.An.sys.Partition(pl.Opts.Part).F {
			return nil, fmt.Errorf("pipeline: factor structure is not one of its plan's")
		}
		sw = &pl.sweeps[1]
	}
	sw.once.Do(func() { sw.prog, sw.err = exec.CompileSolve(f, pl.P) })
	return sw.prog, sw.err
}
