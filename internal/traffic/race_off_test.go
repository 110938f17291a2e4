//go:build !race

package traffic_test

const raceBuild = false
