package symbolic

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/order"
	"repro/internal/sparse"
)

// BenchmarkRows times the row index build, Rows() of a fresh copy of the
// factor, on Grid9(60,60), BUS1138 (PowerBus) and CANN1072 (Cannes), each
// in MMD order, and reports nanoseconds per off-diagonal entry.
func BenchmarkRows(b *testing.B) {
	for _, c := range []struct {
		name string
		m    *sparse.Matrix
	}{
		{"Grid9(60,60)", gen.Grid9(60, 60)},
		{"PowerBus", gen.PowerBus(1138, 321, 1138)},
		{"Cannes", gen.Cannes(1072, 5686, 1072)},
	} {
		pm, err := c.m.Permute(order.MMD(c.m))
		if err != nil {
			b.Fatal(err)
		}
		f := Analyze(pm)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				(&Factor{N: f.N, ColPtr: f.ColPtr, RowInd: f.RowInd, Parent: f.Parent}).Rows()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(f.NNZ()-f.N), "ns/entry")
		})
	}
}
