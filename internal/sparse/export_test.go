package sparse

// RefPermute hands the pre-rewrite Permute (permute_ref_test.go) to the
// external test package, which may import the generators.
var RefPermute = (*Matrix).refPermute
