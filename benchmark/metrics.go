package main

import "math"

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// roleOf maps a round's operation to the end-to-end metric it feeds. The
// contract wants every end-to-end metric from every workload, so the three
// timings are named for the role an operation plays in its workload — the
// headline request, the same layer used a second way, and the form that
// runs on (or plans for) the machine's two processors — and the issue's
// workload-specific names are their aliases.
var roleOf = map[string]string{"request": "request_ms", "variant": "variant_ms", "p2": "p2_ms"}

// alias is the issue's name for an end-to-end metric on a workload; the
// README says what each operation is.
var alias = map[string]map[string]string{
	"cold":     {"request_ms": "cold_solve_ms", "variant_ms": "cold_solve_ldl_ms", "p2_ms": "cold_par_solve_ms"},
	"refactor": {"request_ms": "refactor_ms", "variant_ms": "refactor_ldl_ms", "p2_ms": "par_factor_ms"},
	"warm":     {"request_ms": "warm_solve_us", "variant_ms": "batch_solve_us", "p2_ms": "par_solve_ms"},
	"study": {
		"request_ms": "study1d_ms", "variant_ms": "study2d_ms", "p2_ms": "study_p2_ms",
		"traffic_words": "study_traffic_words", "span_work": "study_span_work",
	},
}

// opaqueOps are the untraced operations whose calls a workload's traced
// request.opaque spans wrap; trace.overhead_pct compares the two.
var opaqueOps = map[string][]string{
	"cold": {"request"}, "refactor": {"request"}, "warm": {"request"},
	"study": {"request", "variant", "p2"}, // every cell of every sweep
}

// layerMetric derives one per-layer metric from the spans of one name, 0
// when the workload never makes the call. A metric without a span is
// derived from others, or is a counter, in layerValues.
type layerMetric struct {
	name, unit, span string
	get              func(*spanSeries) float64
}

// perCall is the steady time of the round's calls ÷ the calls.
func perCall(unit string) func(*spanSeries) float64 {
	scale := unitScale(unit)
	return func(s *spanSeries) float64 { return s.dur.steady() / s.callsPerRound() / scale }
}

func allocsPerCall(s *spanSeries) float64 { return median(s.mallocs) / s.callsPerRound() }
func workPerCall(s *spanSeries) float64   { return float64(s.totalWork()) / s.callsPerRound() }
func nsPerWork(s *spanSeries) float64     { return s.dur.steady() / float64(s.totalWork()) }

// mbPerSecond reads work as bytes.
func mbPerSecond(s *spanSeries) float64 { return float64(s.totalWork()) / s.dur.steady() * 1e3 }

func timed(name, unit, span string) layerMetric {
	return layerMetric{name, unit, span, perCall(unit)}
}

// derived declares a metric layerValues computes from others or reads off
// a counter.
func derived(name, unit string) layerMetric { return layerMetric{name: name, unit: unit} }

var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []layerMetric {
	ms := []layerMetric{
		timed("sparse.validate_us", "us", "sparse.validate"),
		timed("sparse.permute_ms", "ms", "sparse.permute"),
		timed("hbio.read_ms", "ms", "hbio.read"),
		{"hbio.read_mb_per_s", "MB/s", "hbio.read", mbPerSecond},
		timed("order.mmd_ms", "ms", "order.mmd"),
		{"order.mmd_ns_per_nnz", "ns", "order.mmd", nsPerWork},
		{"order.mmd_allocs", "count", "order.mmd", allocsPerCall},
		timed("symbolic.analyze_ms", "ms", "symbolic.analyze"),
		{"symbolic.nnzL", "count", "symbolic.analyze", workPerCall},
		timed("model.ops_ms", "ms", "model.ops"),
		{"model.work_units", "count", "model.ops", workPerCall},
		timed("core.partition_ms", "ms", "core.partition"),
		{"core.partition_allocs", "count", "core.partition", allocsPerCall},
		{"core.units", "count", "core.partition", workPerCall},
	}
	for _, name := range []string{"block", "blockcyclic", "blockgreedy", "contigtotal", "contiguous", "rectilinear", "refine", "subcube", "wrap"} {
		ms = append(ms, timed("strategy.map_ms."+name, "ms", "strategy.map."+name))
	}
	ms = append(ms,
		timed("strategy.tasks_ms", "ms", "strategy.tasks"),
		timed("strategy.fetch_ms", "ms", "strategy.fetch"),
	)
	for _, name := range []string{"col2d", "rect2d", "rect2dcyclic", "rect2dlpt"} {
		ms = append(ms, timed("part2d.map_ms."+name, "ms", "part2d.map."+name))
	}
	return append(ms,
		timed("part2d.tasks_ms", "ms", "part2d.tasks"),
		timed("part2d.fetch_ms", "ms", "part2d.fetch"),
		timed("part2d.lift_s", "s", "part2d.lift"),
		timed("traffic.simulate_ms", "ms", "traffic.simulate"),
		layerMetric{"traffic.words", "count", "traffic.simulate", workPerCall},
		timed("exec.sim_static_ms", "ms", "exec.sim_static"),
		timed("exec.sim_comm_ms", "ms", "exec.sim_comm"),
		layerMetric{"exec.tasks", "count", "exec.sim_static", workPerCall},
		timed("exec.engine_p1_ms", "ms", "exec.engine_p1"),
		timed("exec.engine_p2_ms", "ms", "exec.engine_p2"),
		derived("exec.engine_p1_over_serial", "ratio"),
		derived("exec.par_speedup", "ratio"),
		layerMetric{"exec.engine_ns_per_task", "ns", "exec.engine_p2", nsPerWork},
		timed("exec.parsolve_ms", "ms", "exec.parsolve"),
		derived("exec.parsolve_over_serial", "ratio"),
		timed("numeric.chol_ms", "ms", "numeric.chol"),
		timed("numeric.ldl_ms", "ms", "numeric.ldl"),
		layerMetric{"numeric.chol_ns_per_work", "ns", "numeric.chol", nsPerWork},
		timed("numeric.sweep_us", "us", "numeric.sweep"),
		layerMetric{"numeric.sweep_ns_per_nnzL", "ns", "numeric.sweep", nsPerWork},
		derived("numeric.residual_max", "ratio"),
		timed("artifact.pattern_hash_us", "us", "artifact.pattern_hash"),
		timed("artifact.values_hash_us", "us", "artifact.values_hash"),
		timed("artifact.lookup_us", "us", "artifact.lookup"),
		derived("artifact.hits", "count"),
		derived("artifact.misses", "count"),
		derived("artifact.evictions", "count"),
		derived("artifact.hit_ratio", "ratio"),
		timed("pipeline.analysis_ms", "ms", "pipeline.analysis"),
		timed("pipeline.plan_ms", "ms", "pipeline.plan"),
		timed("pipeline.permute_values_us", "us", "pipeline.permute_values"),
		timed("pipeline.held_solve_us", "us", "pipeline.held_solve"),
		derived("pipeline.warm_over_sweep", "ratio"),
		layerMetric{"pipeline.warm_solve_allocs", "count", "request.opaque", allocsPerCall},
		derived("pipeline.glue_us", "us"),
		derived("trace.overhead_pct", "%"),
		derived("trace.coverage", "ratio"),
	)
}

// layerValues turns a traced pass into the per-layer metrics.
func layerValues(workload string, t *tracer, r *recorder) map[string]metric {
	spans := t.bySpan()
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		m := metric{Unit: lm.unit}
		if ss := spans[lm.span]; ss != nil {
			// A span without work has no per-work rate.
			if v := lm.get(ss); !math.IsInf(v, 0) && !math.IsNaN(v) {
				m.Value, m.N = v, len(ss.mallocs)
			}
		}
		out[lm.name] = m
	}
	set := func(name string, v float64) {
		m := out[name]
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			m.Value = v
		}
		out[name] = m
	}
	// ns is a span's steady time per call, 0 if it was never made.
	ns := func(span string, of func(*spanSeries) *series) float64 {
		ss := spans[span]
		if ss == nil {
			return 0
		}
		return of(ss).steady() / ss.callsPerRound()
	}
	dur := func(s *spanSeries) *series { return &s.dur }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// The re-enactment's stage spans against the opaque call they
	// re-enact: what the stage list explains, and what it does not.
	opaque := ns("request.opaque", dur)
	stages := ns("request.reenact", func(s *spanSeries) *series { return &s.kids })
	set("trace.coverage", ratio(stages, opaque))
	set("pipeline.glue_us", (opaque-stages)/1e3)
	var untraced, calls float64
	for _, op := range opaqueOps[workload] {
		if o := r.ops[op]; o != nil {
			untraced += o.steady()
			calls += float64(len(o.calls))
		}
	}
	untraced = ratio(untraced, calls)
	gross := ns("request.opaque", func(s *spanSeries) *series { return &s.gross })
	set("trace.overhead_pct", 100*ratio(gross-untraced, untraced))
	set("pipeline.warm_over_sweep", ratio(opaque, ns("numeric.sweep", dur)))
	set("exec.engine_p1_over_serial", ratio(ns("exec.engine_p1", dur), ns("numeric.chol", dur)))
	set("exec.par_speedup", ratio(ns("exec.engine_p1", dur), ns("exec.engine_p2", dur)))
	set("exec.parsolve_over_serial", ratio(ns("exec.parsolve", dur), ns("numeric.sweep_ref", dur)))
	set("numeric.residual_max", r.residualMax)
	for name, v := range t.counters {
		set(name, v)
	}
	return out
}
