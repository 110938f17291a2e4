//go:build race

package numeric

// raceBuild trims TestSegmentMatchesColumn to the suite and sweepCases
// to the shapes before Grid9(120,120): they run on one goroutine, so the
// race detector has nothing to find in them and only multiplies their
// cost.
const raceBuild = true
