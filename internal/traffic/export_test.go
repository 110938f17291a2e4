package traffic

// The reference check, for the strategy and 2D grids of
// fetch_grid_test.go (package traffic_test, which may import the packages
// that import this one), and the test that sends a block schedule down the
// read-map replay.
var (
	CheckAttribution = checkAttribution
	UnitUniform      = unitUniform
)
