//go:build race

package traffic_test

// raceBuild trims the strategy grid: the attribution is single-threaded,
// so the race detector has nothing to find in it and only multiplies its
// cost.
const raceBuild = true
