package main

import (
	"math/rand"
	"time"
)

// warmWL is right-hand-side churn over resident artifacts: no ordering,
// mapping or factorization runs, so validation, the two content hashes,
// the store lookups and the sweeps are the request. Single, batched and
// parallel solves use numeric's sweeps three ways.
type warmWL struct {
	cfg  config
	rng  *rand.Rand
	pool []named
	c    *cache
	fas  []*factor
	keys [][3]storeKey
	lap  int // index of LAP30: held, bare and batched solves
	grid int // index of GRID9: parallel solve

	planCounts

	hits0, misses0, evictions0 int64
}

func (w *warmWL) setup(seed int64) error {
	w.rng = rand.New(rand.NewSource(seed))
	w.pool = buildPool(w.cfg, seed)
	w.c = newCache(64)
	for i, m := range w.pool {
		if _, err := cacheSolve(w.c, m.a, cholesky, rhs(w.rng, dim(m.a))); err != nil {
			return err
		}
		h, err := cachePlan(w.c, m.a, reqProcs)
		if err != nil {
			return err
		}
		fa, err := cacheFactor(w.c, h.pl, m.a, cholesky)
		if err != nil {
			return err
		}
		w.fas = append(w.fas, fa)
		w.keys = append(w.keys, residentKeys(h, m.a))
		switch m.name {
		case "LAP30":
			w.lap = i
		case "GRID9":
			w.grid = i
		}
		if !m.seeded {
			w.addPlan(h.pl)
		}
	}
	return nil
}

func (w *warmWL) round(r *recorder, warmup bool) {
	for _, m := range w.pool {
		b := rhs(w.rng, dim(m.a))
		t0 := time.Now()
		x, err := cacheSolve(w.c, m.a, cholesky, b)
		r.add("request", time.Since(t0), 1)
		r.solved("request "+m.name, m.a, x, b, err)
	}

	lap, fa := w.pool[w.lap].a, w.fas[w.lap]
	bs := make([][]float64, w.cfg.Batch)
	for i := range bs {
		bs[i] = rhs(w.rng, dim(lap))
	}
	t0 := time.Now()
	xs, err := factorSolveBatch(fa, bs)
	r.add("variant", time.Since(t0), len(bs))
	ok := err == nil
	for i := 0; ok && i < len(bs); i++ {
		ok = residual(lap, xs[i], bs[i]) <= residualTol
	}
	r.check(ok, "batch solve: error or residual above tolerance (%v)", err)

	grid := w.pool[w.grid].a
	b := rhs(w.rng, dim(grid))
	t0 = time.Now()
	x, err := factorSolveParallel(w.fas[w.grid], b)
	r.add("p2", time.Since(t0), 1)
	r.solved("parallel solve", grid, x, b, err)

	if warmup {
		// Everything is resident from here on: the run must not miss.
		w.hits0, w.misses0, w.evictions0 = cacheCounts(w.c)
	}
}

// traced serves each pattern through the opaque warm Cache.Solve, through
// Factor.Solve on the held factor, and as the layer calls a warm
// Cache.Solve makes: validate, pattern hash, three lookups, values hash,
// sweeps.
func (w *warmWL) traced(t *tracer, r *recorder) {
	for i, m := range w.pool {
		req := t.round*len(w.pool) + i + 1
		a := m.a
		b := rhs(w.rng, dim(a))

		var opaque []float64
		var err error
		t.call("request.opaque", 0, req, func() int64 {
			opaque, err = cacheSolve(w.c, a, cholesky, b)
			return 0
		})
		if !r.solved("traced request "+m.name, a, opaque, b, err) {
			continue
		}

		root := t.begin("request.staged", 0, req)
		var x []float64
		t.call("pipeline.held_solve", root, req, func() int64 { x, err = factorSolve(w.fas[i], b); return 0 })
		t.end(root, 0)
		r.check(err == nil && sameBits(x, opaque), "held solve %s differs from Cache.Solve's (%v)", m.name, err)

		ch, perm, nnzL := factorSweeps(w.fas[i])
		root = t.begin("request.reenact", 0, req)
		t.call("sparse.validate", root, req, func() int64 { err = validate(a); return nnz(a) })
		t.call("artifact.pattern_hash", root, req, func() int64 { patternHash(a); return nnz(a) })
		for _, k := range w.keys[i][:2] {
			t.call("artifact.lookup", root, req, func() int64 { r.check(lookup(w.c, k) == nil, "%s: %s not resident", m.name, k); return 0 })
		}
		t.call("artifact.values_hash", root, req, func() int64 { valuesHash(a); return nnz(a) })
		t.call("artifact.lookup", root, req, func() int64 {
			r.check(lookup(w.c, w.keys[i][2]) == nil, "%s: factor not resident", m.name)
			return 0
		})
		pb := permuteRHS(b, perm)
		t.call("numeric.sweep", root, req, func() int64 { pb = sweep(ch, pb); return nnzL })
		x = unpermute(pb, perm)
		t.end(root, 0)
		r.check(err == nil && sameBits(x, opaque), "re-enacted %s: solution differs from Cache.Solve's (%v)", m.name, err)
	}

	// The parallel sweeps beside the serial ones on the same factor.
	grid := w.pool[w.grid].a
	b := rhs(w.rng, dim(grid))
	var x []float64
	var err error
	t.call("exec.parsolve", 0, 0, func() int64 { x, err = factorSolveParallel(w.fas[w.grid], b); return 0 })
	r.solved("traced parallel solve", grid, x, b, err)
	ch, perm, nnzL := factorSweeps(w.fas[w.grid])
	pb := permuteRHS(b, perm)
	t.call("numeric.sweep_ref", 0, 0, func() int64 { pb = sweep(ch, pb); return nnzL })
}

func (w *warmWL) finish(r *recorder, t *tracer) {
	h, m, e := cacheCounts(w.c)
	h, m, e = h-w.hits0, m-w.misses0, e-w.evictions0
	r.check(h > 0 && m == 0, "warm hit ratio is not 1: %d hits, %d misses after warm-up", h, m)
	if t != nil {
		noteCounters(t, h, m, e)
	}
}
