//go:build !race

package strategy

const raceBuild = false
