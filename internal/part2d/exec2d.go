package part2d

import (
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/sparse"
)

// ParallelFactorize executes the real multi-goroutine Cholesky
// factorization over the tile ownership of s: the merged tile-segment task
// graph (Tasks) that the makespan simulators predict is executed by worker
// goroutines, one per processor, producing a factor bit-for-bit equal to
// numeric.Factorize. m must be the permuted matrix ops was built from.
func ParallelFactorize(m *sparse.Matrix, ops *model.Ops, elemWork []int64, s *Schedule2D) (*exec.NumericFactor, error) {
	return parallelFactorize(m, ops, elemWork, s, false)
}

// ParallelFactorizeLDL is ParallelFactorize with the square-root-free LDLᵀ
// kernel, bit-for-bit equal to numeric.FactorizeLDL.
func ParallelFactorizeLDL(m *sparse.Matrix, ops *model.Ops, elemWork []int64, s *Schedule2D) (*exec.NumericFactor, error) {
	return parallelFactorize(m, ops, elemWork, s, true)
}

func parallelFactorize(m *sparse.Matrix, ops *model.Ops, elemWork []int64, s *Schedule2D, ldl bool) (*exec.NumericFactor, error) {
	tasks, elemTask := Tasks(ops, elemWork, s)
	pg, err := exec.Compile(ops.F, s.P, tasks, elemTask)
	if err != nil {
		return nil, err
	}
	nf, _, err := pg.Run(m, ldl, false)
	return nf, err
}

// Measure times the serial factorization against the parallel execution of
// s's task graph (repeat-and-min, bit-identity verified on every run) and
// returns the wall-clock Measurement with per-task real TaskEvents.
func Measure(m *sparse.Matrix, ops *model.Ops, elemWork []int64, s *Schedule2D, opts exec.MeasureOptions) (*exec.Measurement, error) {
	tasks, elemTask := Tasks(ops, elemWork, s)
	return exec.MeasureFactorize(m, ops.F, s.P, tasks, elemTask, opts)
}
