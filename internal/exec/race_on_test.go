//go:build race

package exec_test

// raceBuild trims the compile sweeps: Compile and the walks over its
// output are single-threaded, so the race detector has nothing to find in
// them and only multiplies their cost.
const raceBuild = true
