package repro

// The staged solver pipeline: the paper's four-step direct method split
// into immutable artifacts with explicit handoffs,
//
//	AnalyzePattern(a)            pattern only: ordering + symbolic products
//	  -> an.Plan / an.Plan2D     mapping: schedule + task graph + fetch stats
//	  -> pl.Factorize[Parallel]  values: Cholesky or LDLᵀ factor
//	  -> fa.Solve / SolveBatch / SolveParallel
//
// so analysis happens once per sparsity pattern, mapping once per
// (pattern, strategy, P), factorization once per (pattern, values,
// kernel), and every solve call touches only the triangular sweeps —
// SolveParallel the ones compiled once per plan (independent
// elimination-tree subtrees side by side on its P workers, one join per
// sweep), bit for bit the serial Solve. A Cache content-addresses the
// three stages in an LRU-bounded artifact.Store, serving repeat requests
// against recurring patterns — the factorization-as-a-service scenario —
// from memory:
//
//	cache := repro.NewCache(256)
//	an, _ := cache.Analysis(a)                                // pattern hash
//	pl, _ := cache.Plan(an, "wrap", 16, repro.StrategyOptions{})
//	fa, _ := cache.Factor(pl, a, repro.KernelCholesky)        // (pattern, values, kernel)
//	x, _ := fa.Solve(b)

import (
	"repro/internal/artifact"
	"repro/internal/pipeline"
)

// Analysis is the pattern-stage artifact: fill-reducing ordering,
// symbolic factor, operation structure and work model, derived from a
// matrix pattern alone. Immutable and safe for concurrent use.
type Analysis = pipeline.Analysis

// Plan is the mapping-stage artifact: one strategy's 1D or 2D schedule
// over an Analysis, plus its makespan task graph and fetch attribution.
type Plan = pipeline.Plan

// Factor is the numeric-stage artifact: Cholesky or LDLᵀ factor values
// carrying the Plan they were built from. Its Solve, SolveBatch and
// SolveParallel methods never re-factorize.
type Factor = pipeline.Factor

// Kernel selects the numeric factorization kernel of a Factor.
type Kernel = pipeline.Kernel

// The two factorization kernels: A = L·Lᵀ, and the square-root-free
// A = L·D·Lᵀ for symmetric indefinite systems.
const (
	KernelCholesky = pipeline.Cholesky
	KernelLDL      = pipeline.LDL
)

// Cache content-addresses the staged artifacts in an LRU-bounded
// in-memory store: Analyses and Plans by pattern hash plus stage
// parameters, Factors by (pattern, values, kernel). Safe for arbitrary
// concurrent use; concurrent requests for one artifact share one build.
type Cache = pipeline.Cache

// ArtifactKey is the content address of one staged artifact.
type ArtifactKey = artifact.Key

// CacheStats are hit/miss/eviction counters of a Cache (per artifact
// kind, or store-wide).
type CacheStats = artifact.Counts

// ArtifactStore is the raw content-addressed store under a Cache — the
// surface a serving layer (cmd/factorserved) wraps.
type ArtifactStore = artifact.Store

// NewCache builds an artifact cache bounded to capacity artifacts across
// all stages (capacity <= 0 means unbounded).
func NewCache(capacity int) *Cache { return pipeline.NewCache(capacity) }

// AnalyzePattern builds the pattern-stage artifact of a's sparsity
// pattern under the MMD ordering. Values of a, if any, are ignored.
func AnalyzePattern(a *Matrix) (*Analysis, error) { return pipeline.NewAnalysis(a) }

// AnalyzePatternOrdered is AnalyzePattern with a caller-supplied
// elimination order (order[k] = original index of the k-th variable).
func AnalyzePatternOrdered(a *Matrix, perm []int) (*Analysis, error) {
	return pipeline.NewAnalysisOrdered(a, perm)
}

// PatternKey returns the deterministic content address AnalyzePattern
// assigns to a's sparsity pattern: equal patterns share it, any
// structural difference (including a permutation) changes it.
func PatternKey(a *Matrix) ArtifactKey { return pipeline.AnalysisKey(a) }
