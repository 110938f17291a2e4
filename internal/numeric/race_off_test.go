//go:build !race

package numeric

const raceBuild = false
