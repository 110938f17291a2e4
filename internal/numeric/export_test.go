package numeric

import (
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// RefFactorize hands the oracle of cmod_ref_test.go to the external test
// package, which can import the engine (exec imports numeric).
var RefFactorize = refFactorize

// FactorizeEveryChain is Factorize with every supernode chain of chunkMin
// columns or more factored as chunks, however few its rows: the fuzzer's
// matrices (n <= 48) are too small for the rule.
func FactorizeEveryChain(k Kernel, m *sparse.Matrix, f *symbolic.Factor) ([]float64, error) {
	val, err := ScatterA(m, f)
	if err != nil {
		return nil, err
	}
	var acc []float64
	if err := k.Step(f, val, &acc, serialSteps(f, 0)...); err != nil {
		return nil, err
	}
	return val, nil
}
