package strategy

import "repro/internal/traffic"

// ContiguousSplitTotal is contiguousSplitTotal without telemetry, the form
// the tests call it in.
func ContiguousSplitTotal(work []int64, refs [][]traffic.ColRef, p int, maxWork int64, beta2 float64) []int {
	return contiguousSplitTotal(work, refs, p, maxWork, beta2, nil)
}
