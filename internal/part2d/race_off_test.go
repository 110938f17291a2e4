//go:build !race

package part2d

const raceBuild = false
