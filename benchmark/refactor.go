package main

import (
	"math/rand"
	"time"
)

// refactorWL is value churn on one held pattern: analysis and plans are
// resident, every round brings new values, and the numeric kernel and the
// 2D engine do the work. Cholesky beside LDLᵀ and serial beside engine are
// the same layer used differently; the bare kernel is the plain
// single-threaded baseline of the same problem.
type refactorWL struct {
	cfg  config
	rng  *rand.Rand
	a    *matrix
	base []float64 // the generated values, which every round rescales
	c    *cache
	p2   held // the request's plan: wrap on two workers
	p1   held // the same on one worker: the engine without synchronisation

	planCounts

	lifted                     bool
	engineTasks                int64 // tasks of the lifted graph the P = 2 engine runs
	hits0, misses0, evictions0 int64
}

func (w *refactorWL) setup(seed int64) error {
	w.rng = rand.New(rand.NewSource(seed))
	w.a = grid9(w.cfg.RefactorGrid)
	w.base = append([]float64(nil), values(w.a)...)
	// Room for the analysis, two plans and a few factors: older factors
	// are evicted as values churn.
	w.c = newCache(8)
	var err error
	if w.p2, err = cachePlan(w.c, w.a, reqProcs); err != nil {
		return err
	}
	if w.p1, err = cachePlan(w.c, w.a, 1); err != nil {
		return err
	}
	// The first engine call on a column plan builds its 2D lift.
	for _, h := range []held{w.p2, w.p1} {
		if _, err := planFactorizeParallel(h.pl, w.a); err != nil {
			return err
		}
		w.addPlan(h.pl)
	}
	return nil
}

// churn rescales the values by a seeded positive factor — the matrix stays
// positive definite and its values hash changes — and draws a new rhs.
func (w *refactorWL) churn() []float64 {
	s := 0.5 + 1.5*w.rng.Float64()
	val := values(w.a)
	for i, v := range w.base {
		val[i] = v * s
	}
	return rhs(w.rng, dim(w.a))
}

func (w *refactorWL) round(r *recorder, _ bool) {
	b := w.churn()

	var serial []float64
	for _, s := range serialOps {
		op, k := s.op, s.k
		t0 := time.Now()
		fa, err := cacheFactor(w.c, w.p2.pl, w.a, k)
		var x []float64
		if err == nil {
			x, err = factorSolve(fa, b)
		}
		r.add(op, time.Since(t0), 1)
		if r.solved(op, w.a, x, b, err) && k == cholesky {
			serial = factorValues(fa)
		}
	}

	t0 := time.Now()
	fa, err := planFactorizeParallel(w.p2.pl, w.a)
	r.add("p2", time.Since(t0), 1)
	r.check(err == nil && sameBits(factorValues(fa), serial), "p2: engine factor differs from the serial factor (%v)", err)
}

func (w *refactorWL) traced(t *tracer, r *recorder) {
	if !w.lifted {
		w.lifted = true
		w.hits0, w.misses0, w.evictions0 = cacheCounts(w.c)
		var s2 *schedule2D
		var err error
		t.call("part2d.lift", 0, 0, func() int64 { s2, err = lift2D(w.p2.pl); return 0 })
		r.check(err == nil, "part2d.Lift: %v", err)
		if err == nil {
			var tasks []task
			var elemTask []int32
			t.call("part2d.tasks", 0, 0, func() int64 { tasks, elemTask = tasks2D(w.p2.an, s2); return int64(len(tasks)) })
			t.call("part2d.fetch", 0, 0, func() int64 { return fetch2D(w.p2.an, s2, tasks, elemTask) })
			w.engineTasks = int64(len(tasks))
		}
	}
	req := t.round + 1
	b := w.churn()
	f, _, perm, total := analysisParts(w.p2.an)

	var opaque []float64
	var err error
	t.call("request.opaque", 0, req, func() int64 {
		var fa *factor
		if fa, err = cacheFactor(w.c, w.p2.pl, w.a, cholesky); err == nil {
			opaque, err = factorSolve(fa, b)
		}
		return total
	})
	if !r.solved("traced request", w.a, opaque, b, err) {
		return
	}

	root := t.begin("request.reenact", 0, req)
	t.call("artifact.values_hash", root, req, func() int64 { valuesHash(w.a); return nnz(w.a) })
	var pm *matrix
	t.call("pipeline.permute_values", root, req, func() int64 { pm, err = permutedWithValues(w.p2.an, w.a); return nnz(w.a) })
	if err != nil {
		t.end(root, 0)
		r.check(false, "PermutedWithValues: %v", err)
		return
	}
	var ch *cholFactor
	t.call("numeric.chol", root, req, func() int64 { ch, err = factorize(pm, f); return total })
	if err != nil {
		t.end(root, 0)
		r.check(false, "numeric.Factorize: %v", err)
		return
	}
	pb := permuteRHS(b, perm)
	t.call("numeric.sweep", root, req, func() int64 { pb = sweep(ch, pb); return factorNNZ(f) })
	x := unpermute(pb, perm)
	t.end(root, 0)
	r.check(sameBits(x, opaque), "re-enacted request: solution differs from the cached path's")

	t.call("numeric.ldl", 0, req, func() int64 { _, err = factorizeLDL(pm, f); return total })
	r.check(err == nil, "numeric.FactorizeLDL: %v", err)

	for _, e := range []struct {
		name  string
		pl    *plan
		tasks int64
	}{{"exec.engine_p1", w.p1.pl, 0}, {"exec.engine_p2", w.p2.pl, w.engineTasks}} {
		var fa *factor
		t.call(e.name, 0, req, func() int64 { fa, err = planFactorizeParallel(e.pl, w.a); return e.tasks })
		r.check(err == nil && sameBits(factorValues(fa), cholValues(ch)), "%s: engine factor differs from the serial factor (%v)", e.name, err)
	}
}

func (w *refactorWL) finish(r *recorder, t *tracer) {
	if t != nil {
		h, m, e := cacheCounts(w.c)
		noteCounters(t, h-w.hits0, m-w.misses0, e-w.evictions0)
	}
}
