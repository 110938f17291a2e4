// Package pipeline is the staged solver pipeline of the paper's four-step
// direct method, split into immutable artifacts with explicit handoffs:
//
//	Analysis (pattern only)  ->  Plan (mapping)  ->  Factor (values)  ->  solves
//
// An Analysis derives from a matrix *pattern* alone: the fill-reducing
// ordering, the symbolic factor and the work model. A Plan derives from an
// Analysis: a 1D or 2D schedule plus its task graph and fetch attribution.
// A Factor derives from a Plan plus numeric values: Cholesky or LDLᵀ factor
// values from the serial kernels or the parallel engines. Each artifact
// carries the stage it was built from, so the solve methods on Factor
// never re-run symbolic analysis, mapping or factorization.
//
// Cache content-addresses the expensive stages in an artifact.Store —
// Analyses and Plans by pattern hash (plus stage parameters), Factors by
// (pattern, values, kernel) — which is the analyze-once / factor-many /
// solve-many split the factorization-as-a-service roadmap item calls for.
package pipeline

import (
	"fmt"
	"math"

	"repro/internal/artifact"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/strategy"
	"repro/internal/symbolic"
)

// Analysis is the pattern-stage artifact: everything the pipeline derives
// from a sparsity pattern before any mapping or numeric value enters. It
// is immutable after construction and safe for concurrent use (the
// embedded strategy.Sys partition cache is mutex-guarded).
type Analysis struct {
	// Pattern is a pattern-only view of the analyzed matrix (shares the
	// caller's index slices; values are dropped).
	Pattern *sparse.Matrix
	// Perm is the elimination order (Perm[k] = original index of the k-th
	// eliminated variable) and Permuted the reordered pattern.
	Perm     []int
	Permuted *sparse.Matrix
	// F, Ops, ElemWork and Total are the symbolic products: factor
	// structure, operation structure, per-element work and the paper's
	// Wtot.
	F        *symbolic.Factor
	Ops      *model.Ops
	ElemWork []int64
	Total    int64
	// Key content-addresses this artifact: pattern digest plus ordering.
	Key artifact.Key

	// valPerm maps permuted value positions back to original ones:
	// permutedVal[q] = origVal[valPerm[q]].
	valPerm []int32
	sys     *strategy.Sys
}

// AnalysisKey returns the content address NewAnalysis assigns to the
// analysis of a's pattern: the pattern digest plus the MMD ordering tag.
// Computing it never runs the ordering or the symbolic factorization.
func AnalysisKey(a *sparse.Matrix) artifact.Key {
	h := artifact.NewHasher("analysis")
	h.I64(int64(0)) // ordering tag: 0 = MMD
	h.Str("mmd")
	mixPattern(h, a)
	return h.Sum()
}

// mixPattern appends the pattern digest of a to an analysis hasher.
func mixPattern(h *artifact.Hasher, a *sparse.Matrix) {
	h.Str("pattern")
	h.Key(artifact.Key{Kind: "pattern", Sum: artifact.PatternSum(a)})
}

// NewAnalysis analyzes a matrix pattern under the multiple-minimum-degree
// ordering (the paper's choice for every experiment). Values of a, if
// any, are ignored: the artifact depends on the pattern alone.
func NewAnalysis(a *sparse.Matrix) (*Analysis, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: invalid matrix: %w", err)
	}
	return newAnalysis(a, order.MMD(a), AnalysisKey(a))
}

// NewAnalysisOrdered is NewAnalysis with a caller-supplied elimination
// order. The order is mixed into the artifact key, so differently ordered
// analyses of one pattern never collide.
func NewAnalysisOrdered(a *sparse.Matrix, perm []int) (*Analysis, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: invalid matrix: %w", err)
	}
	if !order.IsPermutation(perm) || len(perm) != a.N {
		return nil, fmt.Errorf("pipeline: ordering is not a permutation of 0..%d", a.N-1)
	}
	h := artifact.NewHasher("analysis")
	h.I64(int64(1)) // ordering tag: 1 = explicit permutation
	h.Ints(perm)
	mixPattern(h, a)
	return newAnalysis(a, perm, h.Sum())
}

// newAnalysis analyzes the valid matrix a under perm; key is the
// analysis' content address, which the caller has already computed.
func newAnalysis(a *sparse.Matrix, perm []int, key artifact.Key) (*Analysis, error) {
	if int64(a.NNZ()) > math.MaxInt32 {
		return nil, fmt.Errorf("pipeline: %d stored entries; the value map holds fewer than 2^31", a.NNZ())
	}
	// Permute an index-valued copy of the pattern: the permuted values
	// recover, for every permuted position, the original position its
	// value comes from (exact: positions stay far below 2^53).
	iv := make([]float64, a.NNZ())
	for i := range iv {
		iv[i] = float64(i)
	}
	idx := &sparse.Matrix{N: a.N, ColPtr: a.ColPtr, RowInd: a.RowInd, Val: iv}
	pidx, err := idx.Permute(perm)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	valPerm := make([]int32, len(pidx.Val))
	for q, v := range pidx.Val {
		valPerm[q] = int32(v)
	}
	pm := &sparse.Matrix{N: pidx.N, ColPtr: pidx.ColPtr, RowInd: pidx.RowInd}
	f, err := symbolic.NewFactor(pm)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	ops := model.NewOps(f)
	ew := model.ElementWork(ops)
	return &Analysis{
		Pattern:  &sparse.Matrix{N: a.N, ColPtr: a.ColPtr, RowInd: a.RowInd},
		Perm:     append([]int(nil), perm...),
		Permuted: pm,
		F:        f,
		Ops:      ops,
		ElemWork: ew,
		Total:    model.TotalWork(ew),
		Key:      key,
		valPerm:  valPerm,
		sys:      strategy.NewSys(f, ops, ew),
	}, nil
}

// Sys returns the strategy-subsystem view of this analysis (shared ops,
// element work and the goroutine-safe per-option partition cache).
func (an *Analysis) Sys() *strategy.Sys { return an.sys }

// N returns the system dimension.
func (an *Analysis) N() int { return an.Pattern.N }

// PermuteValues maps the values of a — a matrix with exactly this
// analysis' pattern — into the permuted value layout, without re-running
// the structural permutation. The result is bitwise identical to
// a.Permute(Perm).Val: values are moved, never recomputed. A pattern other
// than the analysis' or a value count other than its nnz is an error.
func (an *Analysis) PermuteValues(a *sparse.Matrix) ([]float64, error) {
	if a.Val == nil {
		return nil, errNoValues
	}
	if len(a.ColPtr) != len(an.Pattern.ColPtr) {
		return nil, fmt.Errorf("pipeline: matrix has %d column pointers, the analysis %d", len(a.ColPtr), len(an.Pattern.ColPtr))
	}
	if !sparse.PatternEqual(a, an.Pattern) {
		return nil, fmt.Errorf("pipeline: matrix pattern does not match the analysis (key %s)", an.Key)
	}
	if len(a.Val) != len(an.valPerm) {
		return nil, fmt.Errorf("pipeline: matrix has %d values, the analysis pattern %d entries", len(a.Val), len(an.valPerm))
	}
	pv := make([]float64, len(an.valPerm))
	for q, src := range an.valPerm {
		pv[q] = a.Val[src]
	}
	return pv, nil
}

// PermutedWithValues returns the permuted matrix with a's values
// installed — the input of the numeric kernels. The index slices are
// shared with Permuted; only the value slice is fresh.
func (an *Analysis) PermutedWithValues(a *sparse.Matrix) (*sparse.Matrix, error) {
	pv, err := an.PermuteValues(a)
	if err != nil {
		return nil, err
	}
	return &sparse.Matrix{
		N: an.Permuted.N, ColPtr: an.Permuted.ColPtr,
		RowInd: an.Permuted.RowInd, Val: pv,
	}, nil
}
