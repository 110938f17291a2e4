//go:build race

package numeric

// raceBuild trims TestSegmentMatchesColumn to the suite: it runs on one
// goroutine, so the race detector has nothing to find in it and only
// multiplies its cost.
const raceBuild = true
