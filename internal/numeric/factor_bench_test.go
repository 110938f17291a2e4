package numeric

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// BenchmarkFactorizeGrid120 times the serial kernels, Cholesky and LDLᵀ,
// on Grid9(120,120) in MMD order (the refactor workload's pattern),
// analysis outside the loop, and reports nanoseconds per unit of the
// paper's work model: the scoreboard of the kernel's row walk. The cold
// workload's shapes, whose supernodes are narrow, follow as GRID9_60,
// POWERBUS and CANNES.
func BenchmarkFactorizeGrid120(b *testing.B) {
	for _, s := range []struct {
		name string
		m    *sparse.Matrix
	}{
		{"", gen.Grid9(120, 120)},
		{"GRID9_60/", gen.Grid9(60, 60)},
		{"POWERBUS/", gen.PowerBus(3000, 900, 1)},
		{"CANNES/", gen.Cannes(1500, 8000, 1)},
	} {
		m, err := s.m.Permute(order.MMD(s.m))
		if err != nil {
			b.Fatal(err)
		}
		f := symbolic.Analyze(m)
		units := float64(model.TotalWork(model.Work(model.NewOps(f))))
		for _, k := range []Kernel{KernelCholesky, KernelLDL} {
			b.Run(s.name+k.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := k.Factorize(m, f); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/units, "ns/unit")
			})
		}
	}
}
