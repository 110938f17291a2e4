//go:build race

package strategy

// raceBuild trims the reference-equality grids: the DP is single-threaded,
// so the race detector has nothing to find in it and only multiplies its
// cost.
const raceBuild = true
