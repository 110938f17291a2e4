package traffic

// The reference check, for the strategy and 2D grids of
// fetch_grid_test.go (package traffic_test, which may import the packages
// that import this one), and the test that sends a block schedule down the
// read-map replay.
var (
	CheckAttribution = checkAttribution
	UnitUniform      = unitUniform
)

// GroupsSize counts a Groups' records (first position, end,
// multiplicity), the positions they cover and the reads they stand for
// (positions times multiplicity).
func GroupsSize(gs *Groups) (records, positions, reads int) {
	for _, r := range gs.reads {
		positions += int(r.hi - r.lo)
		reads += int(r.hi-r.lo) * int(r.m)
	}
	return len(gs.reads), positions, reads
}
