package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"
)

// config is every size a run uses; the result header records it.
type config struct {
	// Suite includes the five gen.Suite() matrices (n 512–1138). Off, LAP30
	// and BUS1138 are stood in for by Grid9(Lap) and a small PowerBus.
	Suite bool `json:"suite"`
	Lap   int  `json:"lap_grid"`
	// Grid is the side of the larger 9-point grid of cold and warm.
	Grid int `json:"grid"`
	// PowerBus(BusN, BusExtra, seed) and Cannes(CannN, CannOff, seed) are
	// the two patterns that depend on the seed.
	BusN     int `json:"bus_n"`
	BusExtra int `json:"bus_extra"`
	CannN    int `json:"cann_n"`
	CannOff  int `json:"cann_offdiag"`
	// RefactorGrid is the side of refactor's held 9-point grid.
	RefactorGrid int `json:"refactor_grid"`
	// Batch is the number of right-hand sides of one SolveBatch.
	Batch int `json:"batch"`
	// Procs1D and Procs2D are the simulated processor counts of the
	// study's two sweeps; Grain is the extra block grain of the 1D sweep.
	Procs1D []int `json:"procs_1d"`
	Procs2D []int `json:"procs_2d"`
	Grain   int   `json:"grain"`
	// Setups is how many fresh set-ups setup_s is the median of.
	Setups int `json:"setups"`
}

// fullConfig is the committed benchmark. The issue sized runs of 30 s; the
// contract's cap on all runs together leaves 20 s, so the study's 2D sweep
// stops at P = 16 (rect2d at P = 64 alone is a third of a second per
// round) and the other sizes are the issue's.
var fullConfig = config{
	Suite: true, Lap: 30, Grid: 60,
	BusN: 3000, BusExtra: 900, CannN: 1500, CannOff: 8000,
	RefactorGrid: 120, Batch: 64,
	Procs1D: []int{4, 16, 64}, Procs2D: []int{4, 16}, Grain: 25,
	Setups: 3,
}

const (
	// minRounds keeps a median meaningful on a machine so slow that the
	// time budget ends first.
	minRounds = 3
	// residualTol is the accuracy every solution is held to.
	residualTol = 1e-8
)

// workload is one of the four named input regimes. setup builds whatever
// the workload holds before its first round; round performs each of its
// operations once, in a fixed interleaved order, so a noisy phase of the
// shared machine hits every operation alike; traced re-enacts the round's
// requests as the layer calls pipeline makes, one span per call.
type workload interface {
	setup(seed int64) error
	round(r *recorder, warmup bool)
	traced(t *tracer, r *recorder)
	// finish runs the checks that need the whole run (hit ratios).
	finish(r *recorder, t *tracer)
	// counts are the schedule-quality totals of the plans the workload
	// builds or holds on seed-independent patterns.
	counts() (trafficWords, spanWork int64)
}

// planCounts totals the schedule quality of the plans a workload builds
// or holds: simulated traffic and comm-aware static makespan.
type planCounts struct{ trafficWords, spanWork int64 }

func (c *planCounts) addPlan(pl *plan) {
	c.trafficWords += planTraffic(pl)
	c.spanWork += planMakespanComm(pl)
}

func (c *planCounts) counts() (int64, int64) { return c.trafficWords, c.spanWork }

// serialOps are the two kernels a solving workload sends its request with.
var serialOps = []struct {
	op string
	k  kernel
}{{"request", cholesky}, {"variant", ldl}}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "cold":
		return &coldWL{cfg: cfg}, nil
	case "refactor":
		return &refactorWL{cfg: cfg}, nil
	case "warm":
		return &warmWL{cfg: cfg}, nil
	case "study":
		return &studyWL{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var workloadNames = []string{"cold", "refactor", "warm", "study"}

// opSeries is one operation of a workload's round: the times of its calls
// and the number of requests a round of them serves.
type opSeries struct {
	series
	reqs int // requests per round
	n    int // requests so far in the current round
}

// perRequest scales the series' per-round numbers to one request.
func (o *opSeries) perRequest() (steady float64, rounds []float64) {
	rounds = o.rounds()
	for i := range rounds {
		rounds[i] /= float64(o.reqs)
	}
	return o.steady() / float64(o.reqs), rounds
}

// recorder collects one run's timings and check results.
type recorder struct {
	timing bool
	ops    map[string]*opSeries

	attempted, failed int
	firstFailure      string
	residualMax       float64
}

func newRecorder() *recorder { return &recorder{ops: map[string]*opSeries{}} }

// add records one call of op that served n requests in d.
func (r *recorder) add(op string, d time.Duration, n int) {
	if !r.timing {
		return
	}
	o := r.ops[op]
	if o == nil {
		o = new(opSeries)
		r.ops[op] = o
	}
	o.add(float64(d))
	o.n += n
}

func (r *recorder) endRound() {
	for _, o := range r.ops {
		o.reqs, o.n = o.n, 0
		o.endRound()
	}
}

// check counts one attempted operation; a false ok counts it as failed. It
// never stops the run.
func (r *recorder) check(ok bool, what string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.firstFailure == "" {
			r.firstFailure = fmt.Sprintf(what, args...)
		}
	}
}

// solved is the check of every solve: no error and a small residual.
func (r *recorder) solved(op string, a *matrix, x, b []float64, err error) bool {
	if err != nil {
		r.check(false, "%s: %v", op, err)
		return false
	}
	res := residual(a, x, b)
	r.residualMax = max(r.residualMax, res)
	r.check(res <= residualTol, "%s: residual %g", op, res)
	return res <= residualTol
}

// rhs draws a right-hand side with entries in [1, 2).
func rhs(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + rng.Float64()
	}
	return b
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		// == on floats would equate 0 and -0 and reject equal NaNs.
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// metric is one reported number. Only Value is gated; for a timing, N,
// Median, Q1, Q3 and the tail describe the rounds it was taken from.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Median float64 `json:"median,omitempty"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	TailP  float64 `json:"tail_percentile,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

// timing reports an operation: Value is its steady time per request, the
// rest describes the rounds as they were, interference included.
func timing(o *opSeries, unit string) metric {
	if o == nil {
		return metric{Unit: unit}
	}
	steady, rounds := o.perRequest()
	return summary(steady, rounds, unit)
}

// summary reports a steady value (ns) beside the per-round samples (ns)
// it was taken from.
func summary(steady float64, rounds []float64, unit string) metric {
	scale := unitScale(unit)
	q1, med, q3 := quartiles(rounds)
	m := metric{Value: steady / scale, Unit: unit, N: len(rounds), Median: med / scale, Q1: q1 / scale, Q3: q3 / scale}
	if p, v, ok := tailPercentile(rounds); ok {
		m.TailP, m.Tail = p, v/scale
	}
	return m
}

// unitScale is nanoseconds per unit.
func unitScale(unit string) float64 {
	switch unit {
	case "s":
		return 1e9
	case "ms":
		return 1e6
	case "us":
		return 1e3
	}
	return 1
}

// runResult is one run of one workload, traced or not.
type runResult struct {
	header
	Workload     string            `json:"workload"`
	Trace        int               `json:"trace"`
	Rounds       int               `json:"rounds"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	FirstFailure string            `json:"first_failure,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
	Spans        string            `json:"spans,omitempty"`
	// Samples are the calls behind every timing: per operation, per call
	// of a round, its ns over the rounds.
	Samples map[string][][]float64 `json:"samples,omitempty"`
}

// runSpec is what one run is asked to do. Rounds > 0 fixes the number of
// rounds (tests, and anyone who wants counts to repeat); otherwise rounds
// run until Seconds have passed.
type runSpec struct {
	workload string
	cfg      config
	seed     int64
	seconds  float64
	rounds   int
	trace    bool
	outDir   string
	machine  header
}

func (s runSpec) header() header {
	h := s.machine
	h.Seed, h.Seconds, h.Sizes = s.seed, s.seconds, s.cfg
	return h
}

// loop runs rounds — a forced collection before each, never inside one —
// until the budget is used, and returns how many it ran.
func (s runSpec) loop(round func()) int {
	deadline := time.Now().Add(time.Duration(s.seconds * float64(time.Second)))
	i := 0
	for ; ; i++ {
		if s.rounds > 0 {
			if i >= s.rounds {
				break
			}
		} else if i >= minRounds && time.Now().After(deadline) {
			break
		}
		runtime.GC()
		round()
	}
	return i
}

func run(s runSpec) (*runResult, error) {
	res := &runResult{
		header: s.header(), Workload: s.workload,
		Metrics: map[string]metric{},
	}
	rec := newRecorder()

	// Set-up: everything the workload holds before round 1, and one
	// untimed warm-up round so lazy state is built and caches are filled.
	// A traced run sets up once; an untraced one several times, each from
	// nothing, and reports the median.
	setups := s.cfg.Setups
	if s.trace {
		setups = 1
	}
	var w workload
	var setupNS []float64
	for k := 0; k < setups; k++ {
		w = nil
		runtime.GC()
		t0 := time.Now()
		nw, err := newWorkload(s.workload, s.cfg)
		if err != nil {
			return nil, err
		}
		if err := nw.setup(s.seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", s.workload, err)
		}
		nw.round(rec, true)
		setupNS = append(setupNS, float64(time.Since(t0)))
		w = nw
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heldMB := float64(ms.HeapAlloc) / (1 << 20)

	rec.timing = true
	var tr *tracer
	if !s.trace {
		res.Rounds = s.loop(func() { w.round(rec, false); rec.endRound() })
	} else {
		// Untraced and traced rounds alternate, so the times the tracing
		// overhead is measured against see the same phases of the machine
		// and have as many samples.
		res.Trace = 1
		tr = newTracer()
		res.Rounds = s.loop(func() {
			w.round(rec, false)
			rec.endRound()
			runtime.GC()
			w.traced(tr, rec)
			tr.round++
		})
	}
	w.finish(rec, tr)

	res.Samples = map[string][][]float64{}
	res.Attempted, res.Failed, res.FirstFailure = rec.attempted, rec.failed, rec.firstFailure
	res.Correct = rec.failed == 0
	for op, o := range rec.ops {
		res.Samples[op] = o.calls
	}
	if !s.trace {
		tw, sw := w.counts()
		res.Metrics["setup_s"] = summary(median(setupNS), setupNS, "s")
		res.Metrics["held_heap_mb"] = metric{Value: heldMB, Unit: "MB"}
		for op, name := range roleOf {
			res.Metrics[name] = timing(rec.ops[op], "ms")
		}
		res.Metrics["traffic_words"] = metric{Value: float64(tw), Unit: "count"}
		res.Metrics["span_work"] = metric{Value: float64(sw), Unit: "count"}
		return res, nil
	}
	res.Metrics = layerValues(s.workload, tr, rec)
	if s.outDir != "" {
		res.Spans = filepath.Join(s.outDir, "spans-"+s.workload+".json")
		if err := tr.write(res.Spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}
