//go:build !race

package exec_test

const raceBuild = false
