package traffic

// The reference check, for the strategy and 2D grids of
// fetch_grid_test.go (package traffic_test, which may import the packages
// that import this one), and the test that sends a block schedule down the
// read-map replay.
var (
	CheckAttribution = checkAttribution
	UnitUniform      = unitUniform
)

// GroupsSize counts a Groups' records and the positions they cover.
func GroupsSize(gs *Groups) (records, positions int) {
	for _, r := range gs.reads {
		positions += int(r.hi - r.lo)
	}
	return len(gs.reads), positions
}

// GroupsRepeat returns a group that reads some position in two records,
// or -1 when every group reads each of its positions once.
func GroupsRepeat(gs *Groups) int {
	seen := make([]int32, gs.nnz) // seen[q] == g+1: group g reads q
	for g := 0; g+1 < len(gs.readPtr); g++ {
		for _, r := range gs.reads[gs.readPtr[g]:gs.readPtr[g+1]] {
			for q := r.lo; q < r.hi; q++ {
				if seen[q] == int32(g+1) {
					return g
				}
				seen[q] = int32(g + 1)
			}
		}
	}
	return -1
}
