package exec

import (
	"fmt"
	"sync"

	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/sched"
	"repro/internal/symbolic"
)

// solveSetup validates the rhs and schedule against the factor structure
// and derives what the two sweeps of ParallelSolve share: the
// per-processor column lists (a column belongs to the owner of its
// diagonal element), the row-structure ops, the backward-sweep dependency
// lists, and a positional lookup for L[i][j].
func solveSetup(f *symbolic.Factor, s *sched.Schedule, b []float64) (ops *model.Ops, perProc [][]int, backDeps [][]int32, posOf func(i, j int) int, err error) {
	n := f.N
	if len(b) != n {
		return nil, nil, nil, nil, fmt.Errorf("exec: rhs length %d, want %d", len(b), n)
	}
	if len(s.ElemProc) != f.NNZ() {
		return nil, nil, nil, nil, fmt.Errorf("exec: schedule covers a different factor")
	}
	if err := checkProcCount(s.P); err != nil {
		return nil, nil, nil, nil, err
	}
	ops = model.NewOps(f)
	perProc = make([][]int, s.P)
	for j := 0; j < n; j++ {
		p := s.ElemProc[f.ColPtr[j]]
		if err := checkProc(p, s.P); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("exec: column %d: %w", j, err)
		}
		perProc[p] = append(perProc[p], j)
	}
	// Backward-sweep dependencies: struct(j) below the diagonal.
	backDeps = make([][]int32, n)
	for j := 0; j < n; j++ {
		col := f.Col(j)[1:]
		deps := make([]int32, len(col))
		for t, i := range col {
			deps[t] = int32(i)
		}
		backDeps[j] = deps
	}
	// posOf(i, j): value index of L[i][j].
	posOf = func(i, j int) int {
		col := f.Col(j)
		lo, hi := 0, len(col)
		for lo < hi {
			mid := (lo + hi) / 2
			if col[mid] < i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return f.ColPtr[j] + lo
	}
	return ops, perProc, backDeps, posOf, nil
}

// ParallelSolve runs the two triangular solves of the paper's step 4 over
// the factor values val of structure f, with one worker goroutine per
// simulated processor, each owning the columns the schedule assigns to it
// (a column belongs to the owner of its diagonal element).
//
// Both sweeps use the fan-in formulation, so every solution component is
// written exactly once by its owner. For Cholesky (L·y = b, Lᵀ·x = y):
//
//	forward:  y[j] = (b[j] - Σ_{k in rowstruct(j)} L[j,k]·y[k]) / L[j,j]
//	backward: x[j] = (y[j] - Σ_{i in struct(j), i>j} L[i,j]·x[i]) / L[j,j]
//
// For LDLᵀ (unit L, diagonal positions hold D) neither sweep divides by
// the diagonal; w = D⁻¹·z is folded into the backward start instead:
//
//	forward:  z[j] = b[j] - Σ_{k in rowstruct(j)} L[j,k]·z[k]
//	backward: x[j] = z[j]/D[j] - Σ_{i in struct(j), i>j} L[i,j]·x[i]
//
// The forward sweep's dependencies are the factor's row structure; the
// backward sweep's are the column structure, traversed in reverse.
func ParallelSolve(k numeric.Kernel, f *symbolic.Factor, val []float64, s *sched.Schedule, b []float64) ([]float64, error) {
	if err := k.Valid(); err != nil {
		return nil, err
	}
	n := f.N
	ops, perProc, backDeps, posOf, err := solveSetup(f, s, b)
	if err != nil {
		return nil, err
	}
	ldl := k == numeric.KernelLDL

	// Forward sweep.
	y := make([]float64, n)
	runSweep(s.P, perProc, false, func(j int) {
		sum := b[j]
		for _, c := range ops.RowCols(j) {
			sum -= val[posOf(j, int(c))] * y[c]
		}
		if !ldl {
			sum /= val[f.ColPtr[j]]
		}
		y[j] = sum
	}, func(j int) []int32 { return ops.RowCols(j) }, n)

	// Backward sweep: dependencies are struct(j) below the diagonal,
	// traversed in decreasing column order.
	x := make([]float64, n)
	runSweep(s.P, perProc, true, func(j int) {
		sum := y[j]
		if ldl {
			sum /= val[f.ColPtr[j]]
		}
		for q := f.ColPtr[j] + 1; q < f.ColPtr[j+1]; q++ {
			sum -= val[q] * x[f.RowInd[q]]
		}
		if !ldl {
			sum /= val[f.ColPtr[j]]
		}
		x[j] = sum
	}, func(j int) []int32 { return backDeps[j] }, n)
	return x, nil
}

// runSweep executes one triangular sweep: each processor's worker walks
// its columns (reversed for the backward sweep) and blocks until the
// column's dependencies are done.
func runSweep(p int, perProc [][]int, reverse bool, compute func(j int), deps func(j int) []int32, n int) {
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	done := make([]bool, n)
	var wg sync.WaitGroup
	for proc := 0; proc < p; proc++ {
		cols := perProc[proc]
		wg.Add(1)
		//repro:allow nondeterminism -- per-processor sweep workers synchronize on the done/cond column flags; each column is computed exactly once from finished dependencies, pinned by TestParallelSolveLDLDeterministic and TestParallelSolveMatchesSequential
		go func(cols []int) {
			defer wg.Done()
			order := cols
			if reverse {
				order = make([]int, len(cols))
				for i, j := range cols {
					order[len(cols)-1-i] = j
				}
			}
			for _, j := range order {
				mu.Lock()
				for !allDone(done, deps(j)) {
					cond.Wait()
				}
				mu.Unlock()
				compute(j)
				mu.Lock()
				done[j] = true
				cond.Broadcast()
				mu.Unlock()
			}
		}(cols)
	}
	wg.Wait()
}

func allDone(done []bool, preds []int32) bool {
	for _, p := range preds {
		if !done[p] {
			return false
		}
	}
	return true
}
