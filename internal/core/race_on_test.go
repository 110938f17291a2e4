//go:build race

package core

// raceBuild trims the reference-equality grid: the partitioner is
// single-threaded, so the race detector has nothing to find in it and only
// multiplies its cost.
const raceBuild = true
