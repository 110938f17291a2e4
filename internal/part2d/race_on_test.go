//go:build race

package part2d

// raceBuild trims the dense-oracle grids: the mappers and the walks are
// single-threaded, so the race detector has nothing to find in them and
// only multiplies their cost.
const raceBuild = true
