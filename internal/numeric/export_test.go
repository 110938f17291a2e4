package numeric

// RefFactorize hands the oracle of cmod_ref_test.go to the external test
// package, which can import the engine (exec imports numeric).
var RefFactorize = refFactorize
