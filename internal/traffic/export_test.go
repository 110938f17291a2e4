package traffic

// The reference check, for the strategy and 2D grids of
// fetch_grid_test.go (package traffic_test, which may import the packages
// that import this one).
var CheckAttribution = checkAttribution
