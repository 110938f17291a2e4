package main

import (
	"bytes"
	"math/rand"
	"time"
)

// buildPool generates the patterns cold and warm share: the paper's suite,
// a larger grid, and two whose pattern depends on the seed.
func buildPool(cfg config, seed int64) []named {
	pool := []named{{name: "LAP30", a: grid9(cfg.Lap)}}
	if cfg.Suite {
		pool = suite()
	}
	return append(pool,
		named{name: "GRID9", a: grid9(cfg.Grid)},
		named{name: "PBUS", a: powerBus(cfg.BusN, cfg.BusExtra, seed), seeded: true},
		named{name: "CANN", a: cannes(cfg.CannN, cfg.CannOff, seed), seeded: true},
	)
}

func permuteRHS(b []float64, perm []int) []float64 {
	pb := make([]float64, len(b))
	for k, old := range perm {
		pb[k] = b[old]
	}
	return pb
}

func unpermute(px []float64, perm []int) []float64 {
	x := make([]float64, len(px))
	for k, old := range perm {
		x[old] = px[k]
	}
	return x
}

// coldWL is pattern churn: every request meets an empty cache, so
// ordering, symbolic analysis, the work model, the structural permutation
// and the task graph do most of the work and the numeric kernels little.
type coldWL struct {
	cfg  config
	rng  *rand.Rand
	pool []named

	planCounts

	hb []byte // Harwell-Boeing text of GRID9, for the traced hbio.Read

	hits, misses int64 // of the traced requests' caches
}

func (w *coldWL) setup(seed int64) error {
	w.rng = rand.New(rand.NewSource(seed))
	w.pool = buildPool(w.cfg, seed)
	return nil
}

func (w *coldWL) round(r *recorder, warmup bool) {
	for _, m := range w.pool {
		b := rhs(w.rng, dim(m.a))
		for _, s := range serialOps {
			op, k := s.op, s.k
			c := newCache(0)
			t0 := time.Now()
			x, err := cacheSolve(c, m.a, k, b)
			r.add(op, time.Since(t0), 1)
			if r.solved(op+" "+m.name, m.a, x, b, err) {
				hits, _, _ := cacheCounts(c)
				r.check(hits == 0, "%s %s: an empty cache served a hit", op, m.name)
			}
		}

		c := newCache(0)
		t0 := time.Now()
		fa, x, err := cacheParallelSolve(c, m.a, b)
		r.add("p2", time.Since(t0), 1)
		if !r.solved("p2 "+m.name, m.a, x, b, err) {
			continue
		}
		serial, err := planFactorize(factorPlan(fa), m.a, cholesky)
		r.check(err == nil && sameBits(factorValues(fa), factorValues(serial)),
			"p2 %s: engine factor differs from the serial factor", m.name)
		if warmup && !m.seeded {
			w.addPlan(factorPlan(fa))
		}
	}
}

// traced serves each pattern three ways: the opaque Cache.Solve; the staged
// calls a caller holding artifacts would make; and the layer calls
// NewAnalysis, Plan, Factorize and Solve make, in their order.
func (w *coldWL) traced(t *tracer, r *recorder) {
	if w.hb == nil {
		var buf bytes.Buffer
		for _, m := range w.pool {
			if m.name == "GRID9" {
				r.check(hbWrite(&buf, m.a) == nil, "hbio.Write failed")
			}
		}
		w.hb = buf.Bytes()
	}
	t.call("hbio.read", 0, 0, func() int64 {
		_, err := hbRead(bytes.NewReader(w.hb))
		r.check(err == nil, "hbio.Read: %v", err)
		return int64(len(w.hb))
	})

	for i, m := range w.pool {
		req := t.round*len(w.pool) + i + 1
		a := m.a
		b := rhs(w.rng, dim(a))

		c := newCache(0)
		var opaque []float64
		var err error
		t.call("request.opaque", 0, req, func() int64 {
			opaque, err = cacheSolve(c, a, cholesky, b)
			return 0
		})
		if !r.solved("traced request "+m.name, a, opaque, b, err) {
			continue
		}
		hits, misses, _ := cacheCounts(c)
		w.hits += hits
		w.misses += misses

		stagedRequest(t, r, req, a, b)

		x, err := reenactCold(t, req, a, b)
		r.check(err == nil && sameBits(x, opaque), "re-enacted %s: solution differs from Cache.Solve's (%v)", m.name, err)
	}
}

// reenactCold makes, in pipeline's own order, the layer calls a cold
// Cache.Solve makes: NewAnalysis (validate, hash, order, permute, symbolic,
// work model), Plan (map, task graph, fetch attribution), Factorize (hash,
// numeric kernel) and Solve (sweeps).
func reenactCold(t *tracer, req int, a *matrix, b []float64) ([]float64, error) {
	root := t.begin("request.reenact", 0, req)
	defer t.end(root, 0)
	var err error
	t.call("sparse.validate", root, req, func() int64 { err = validate(a); return nnz(a) })
	if err != nil {
		return nil, err
	}
	t.call("artifact.pattern_hash", root, req, func() int64 { patternHash(a); return nnz(a) })
	var perm []int
	t.call("order.mmd", root, req, func() int64 { perm = mmd(a); return nnz(a) })
	var pm *matrix
	t.call("sparse.permute", root, req, func() int64 { pm, err = permute(a, perm); return nnz(a) })
	if err != nil {
		return nil, err
	}
	var f *symFactor
	t.call("symbolic.analyze", root, req, func() int64 { f = symbolicAnalyze(pm); return factorNNZ(f) })
	var sys *stratSys
	var total int64
	t.call("model.ops", root, req, func() int64 {
		ops, ew, tw := workModel(f)
		sys, total = newSys(f, ops, ew), tw
		return tw
	})
	var sc *schedule
	t.call("strategy.map."+reqStrategy, root, req, func() int64 {
		sc, err = strategyMap(reqStrategy, sys, reqProcs, options{})
		return 0
	})
	if err != nil {
		return nil, err
	}
	t.call("strategy.tasks", root, req, func() int64 { return int64(len(strategyTasks(sys, options{}, sc))) })
	t.call("strategy.fetch", root, req, func() int64 { return strategyFetch(sys, options{}, sc) })
	t.call("artifact.values_hash", root, req, func() int64 { valuesHash(a); return nnz(a) })
	var ch *cholFactor
	t.call("numeric.chol", root, req, func() int64 { ch, err = factorize(pm, f); return total })
	if err != nil {
		return nil, err
	}
	pb := permuteRHS(b, perm)
	t.call("numeric.sweep", root, req, func() int64 { pb = sweep(ch, pb); return factorNNZ(f) })
	return unpermute(pb, perm), nil
}

// stagedRequest times the four staged calls a caller makes who holds the
// artifacts instead of a cache.
func stagedRequest(t *tracer, r *recorder, req int, a *matrix, b []float64) {
	root := t.begin("request.staged", 0, req)
	defer t.end(root, 0)
	var an *analysis
	var err error
	t.call("pipeline.analysis", root, req, func() int64 { an, err = newAnalysis(a); return nnz(a) })
	if err != nil {
		r.check(false, "NewAnalysis: %v", err)
		return
	}
	var pl *plan
	t.call("pipeline.plan", root, req, func() int64 {
		pl, err = analysisPlan(an, reqStrategy, reqProcs, options{})
		return 0
	})
	if err != nil {
		r.check(false, "Analysis.Plan: %v", err)
		return
	}
	t.call("pipeline.permute_values", root, req, func() int64 { _, err = permutedWithValues(an, a); return nnz(a) })
	var fa *factor
	t.call("pipeline.factorize", root, req, func() int64 { fa, err = planFactorize(pl, a, cholesky); return 0 })
	if err != nil {
		r.check(false, "Plan.Factorize: %v", err)
		return
	}
	var x []float64
	t.call("pipeline.held_solve", root, req, func() int64 { x, err = factorSolve(fa, b); return 0 })
	r.solved("staged request", a, x, b, err)
}

func (w *coldWL) finish(r *recorder, t *tracer) {
	if t != nil {
		noteCounters(t, w.hits, w.misses, 0)
	}
}

// noteCounters records the artifact store's counters over the traced pass.
func noteCounters(t *tracer, hits, misses, evictions int64) {
	t.counters["artifact.hits"] = float64(hits)
	t.counters["artifact.misses"] = float64(misses)
	t.counters["artifact.evictions"] = float64(evictions)
	if hits+misses > 0 {
		t.counters["artifact.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
}
