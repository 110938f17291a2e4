package exec

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/numeric"
	"repro/internal/sched"
)

// TestParallelFactorizeDeterminism pins bit-for-bit stability of the
// block program across repeated compilations and runs on the same
// schedule: the workers synchronize on the unit graph Compile builds
// (never by map iteration), and every column segment replays the serial
// update order. If scheduling order ever leaked into the numerics, two
// runs would disagree in the low bits here. CI runs this with -race and
// -count=2.
func TestParallelFactorizeDeterminism(t *testing.T) {
	for _, tm := range gen.Suite() {
		p := buildPipe(tm.Build(), 25, 4)
		s := sched.BlockMap(p.part, 8)
		first, err := blockFactorize(p.m, p.part, s, numeric.KernelCholesky)
		if err != nil {
			t.Fatalf("%s: %v", tm.Name, err)
		}
		for rep := 0; rep < 3; rep++ {
			got, err := blockFactorize(p.m, p.part, s, numeric.KernelCholesky)
			if err != nil {
				t.Fatalf("%s: rep %d: %v", tm.Name, rep, err)
			}
			for k := range first.Val {
				if math.Float64bits(got.Val[k]) != math.Float64bits(first.Val[k]) {
					t.Fatalf("%s: rep %d diverged at value %d: %x vs %x",
						tm.Name, rep, k, math.Float64bits(got.Val[k]), math.Float64bits(first.Val[k]))
				}
			}
		}
	}
}
