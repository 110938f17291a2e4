package pipeline

import (
	"repro/internal/artifact"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/strategy"
)

// Cache is the typed layer over an artifact.Store: it computes each
// stage's content address, serves hits, and builds misses with the staged
// constructors. One Cache is safe for arbitrary concurrent use, and
// concurrent requests for one key share a single build.
type Cache struct {
	store *artifact.Store
}

// NewCache builds a cache bounded to capacity artifacts across all stages
// (capacity <= 0 means unbounded).
func NewCache(capacity int) *Cache {
	return &Cache{store: artifact.NewStore(capacity)}
}

// Store exposes the underlying content-addressed store (counters, and the
// raw GetOrBuild surface a serving layer wraps).
func (c *Cache) Store() *artifact.Store { return c.store }

// Stats returns the store-wide hit/miss/eviction totals.
func (c *Cache) Stats() artifact.Counts { return c.store.Stats() }

// StatsByKind returns the per-stage ("analysis", "plan", "factor")
// hit/miss/eviction counters.
func (c *Cache) StatsByKind() map[string]artifact.Counts { return c.store.StatsByKind() }

// Analysis returns the cached analysis of a's pattern under MMD, building
// it on a miss. A repeat call with any matrix of the same pattern is a
// hit and performs zero symbolic work.
func (c *Cache) Analysis(a *sparse.Matrix) (*Analysis, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	v, _, err := c.store.GetOrBuild(AnalysisKey(a), func() (any, error) {
		return NewAnalysis(a)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Analysis), nil
}

// Plan returns the cached 1D plan for (name, p, opts) over an, mapping on
// a miss. A repeat call is a hit and performs zero mapping work.
func (c *Cache) Plan(an *Analysis, name string, p int, opts strategy.Options) (*Plan, error) {
	return c.plan(an, name, p, opts, false)
}

// Plan2D is Plan over the 2D tile-strategy registry.
func (c *Cache) Plan2D(an *Analysis, name string, p int, opts strategy.Options) (*Plan, error) {
	return c.plan(an, name, p, opts, true)
}

func (c *Cache) plan(an *Analysis, name string, p int, opts strategy.Options, dim2 bool) (*Plan, error) {
	if err := sched.CheckProcs("pipeline", p); err != nil {
		return nil, err
	}
	v, _, err := c.store.GetOrBuild(an.PlanKey(name, p, opts, dim2), func() (any, error) {
		if dim2 {
			return an.Plan2D(name, p, opts)
		}
		return an.Plan(name, p, opts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Plan), nil
}

// Factor returns the cached serial-kernel factor of a under pl, keyed by
// (pattern, ordering, values, kernel). A repeat call with bitwise-equal
// values is a hit and performs zero factorization work.
func (c *Cache) Factor(pl *Plan, a *sparse.Matrix, k Kernel) (*Factor, error) {
	return c.factor(pl, a, k, false)
}

// FactorParallel is Factor built with the plan's compiled program. It
// shares the serial key (the values are bit-identical) unless the plan is
// a relaxed block plan, whose key mixes in the plan.
func (c *Cache) FactorParallel(pl *Plan, a *sparse.Matrix, k Kernel) (*Factor, error) {
	return c.factor(pl, a, k, true)
}

func (c *Cache) factor(pl *Plan, a *sparse.Matrix, k Kernel, parallel bool) (*Factor, error) {
	if err := k.Valid(); err != nil {
		return nil, err
	}
	if a.Val == nil {
		return nil, errNoValues
	}
	key := pl.FactorKey(k, a, parallel)
	v, _, err := c.store.GetOrBuild(key, func() (any, error) {
		return pl.factor(a, k, parallel, key)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Factor), nil
}

// Solve runs the full staged pipeline through the cache — analysis, 1D
// plan, serial-kernel factor, serial solve — so a repeat solve against a
// recurring pattern touches only the triangular sweeps. It is the
// one-call convenience the CLIs use; staged callers hold the artifacts
// themselves.
func (c *Cache) Solve(a *sparse.Matrix, name string, p int, opts strategy.Options, k Kernel, b []float64) ([]float64, error) {
	if err := sched.CheckProcs("pipeline", p); err != nil {
		return nil, err
	}
	an, err := c.Analysis(a)
	if err != nil {
		return nil, err
	}
	pl, err := c.Plan(an, name, p, opts)
	if err != nil {
		return nil, err
	}
	fa, err := c.Factor(pl, a, k)
	if err != nil {
		return nil, err
	}
	return fa.Solve(b)
}
