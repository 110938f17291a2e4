package tables

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/strategy"
)

// PipelineRecord runs the staged-pipeline throughput study for one
// problem and returns its bench-ledger row (Kind "pipeline"): the same
// solve request issued cold (empty artifact store: ordering, symbolic
// factorization, mapping and numeric factorization all run) and then
// solves times warm (every stage a cache hit: only the triangular sweeps
// run), the factor-many/solve-many scenario the staged pipeline exists
// for. SerialNs carries the cold request, MeasuredNs the fastest warm
// request, MeasuredSpeedup their ratio, and Hits/Misses the store counters
// that prove the warm requests did zero symbolic, mapping and
// factorization work.
func PipelineRecord(p *Problem, strategyName string, np, solves int) (obs.BenchRecord, error) {
	cache := pipeline.NewCache(0)
	b := make([]float64, p.A.N)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	opts := strategy.Options{}
	// request times one solve through the shared cache.
	request := func(temp string) (int64, error) {
		//repro:allow nondeterminism -- benchmark harness: wall-clock feeds only the reported cold/warm timings; the solved vectors are cache artifacts pinned by TestCacheServesIdenticalArtifacts
		start := time.Now()
		if _, err := cache.Solve(p.A, strategyName, np, opts, pipeline.Cholesky, b); err != nil {
			return 0, fmt.Errorf("tables: pipeline %s solve on %s: %w", temp, p.Meta.Name, err)
		}
		return max(time.Since(start).Nanoseconds(), 1), nil
	}
	coldNs, err := request("cold")
	if err != nil {
		return obs.BenchRecord{}, err
	}
	warmNs, err := request("warm")
	for i := 1; i < solves && err == nil; i++ {
		var ns int64
		ns, err = request("warm")
		warmNs = min(warmNs, ns)
	}
	if err != nil {
		return obs.BenchRecord{}, err
	}
	var hits, misses int64
	//repro:allow maporder -- commutative integer sums over the per-kind counters; order cannot change the totals
	for _, c := range cache.StatsByKind() {
		hits += c.Hits
		misses += c.Misses
	}
	pl, err := p.An.Plan(strategyName, np, opts)
	if err != nil {
		return obs.BenchRecord{}, err
	}
	return obs.BenchRecord{
		Matrix: p.Meta.Name, Strategy: strategyName, Kind: "pipeline", P: np,
		Makespan: pl.Makespan().Makespan, Traffic: pl.TrafficTotal(),
		Efficiency:      1 - float64(warmNs)/float64(coldNs), // fraction of the cold request the cache removes
		SerialNs:        coldNs,
		MeasuredNs:      warmNs,
		MeasuredSpeedup: float64(coldNs) / float64(warmNs),
		Hits:            hits,
		Misses:          misses,
	}, nil
}
