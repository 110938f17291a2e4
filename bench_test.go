// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each BenchmarkTableN drives the same computation as
// cmd/paperbench -table N and reports the headline quantities via
// b.ReportMetric, so `go test -bench=. -benchmem` both times the pipeline
// and re-derives the paper's numbers. The Figure benchmarks exercise the
// artifacts behind the paper's figures (the Figure 2 example matrix, the
// Figure 3 partitioning, the Figure 4 dependency engine). Wall-clock and
// per-layer cost tracking lives in benchmark/ (cold, refactor, warm and
// study workloads), not here.
package repro_test

import (
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/tables"
)

var (
	suiteOnce sync.Once
	suite     []*tables.Problem
	suiteErr  error
)

func problems(b *testing.B) []*tables.Problem {
	b.Helper()
	suiteOnce.Do(func() { suite, suiteErr = tables.LoadSuite() })
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

func lap30(b *testing.B) *tables.Problem {
	for _, p := range problems(b) {
		if p.Meta.Name == "LAP30" {
			return p
		}
	}
	b.Fatal("LAP30 missing")
	return nil
}

// BenchmarkTable1 regenerates the test-matrix statistics (Table 1).
func BenchmarkTable1(b *testing.B) {
	ps := problems(b)
	var rows []tables.Table1Row
	for i := 0; i < b.N; i++ {
		rows = tables.Table1(ps)
	}
	for _, r := range rows {
		if r.Name == "LAP30" {
			b.ReportMetric(float64(r.FactorNNZ), "LAP30-nnzL")
		}
	}
}

// BenchmarkTables2and3 regenerates block-mapping communication (Table 2)
// and work distribution (Table 3), one experiment printed as two tables.
func BenchmarkTables2and3(b *testing.B) {
	ps := problems(b)
	var rows []tables.GrainPairRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = tables.Tables2and3(ps)
	}
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		if r.Name == "LAP30" && r.P == 16 {
			b.ReportMetric(float64(r.TotalG4), "LAP30-P16-g4")
			b.ReportMetric(float64(r.TotalG25), "LAP30-P16-g25")
			b.ReportMetric(r.AG25, "LAP30-P16-A-g25")
		}
	}
}

// BenchmarkTable4 regenerates the cluster-width sweep (Table 4).
func BenchmarkTable4(b *testing.B) {
	lap := lap30(b)
	var rows []tables.MappingRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = tables.Table4(lap)
	}
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		if r.Width == 8 && r.P == 16 {
			b.ReportMetric(float64(r.Total), "LAP30-w8-P16-traffic")
		}
	}
}

// BenchmarkTable5 regenerates the wrap-mapping table (Table 5).
func BenchmarkTable5(b *testing.B) {
	ps := problems(b)
	var rows []tables.MappingRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = tables.Table5(ps)
	}
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		if r.Name == "LAP30" && r.P == 16 {
			b.ReportMetric(float64(r.Total), "LAP30-P16-traffic")
		}
	}
}

// BenchmarkFigure2 builds and partitions the 41x41 5-point FE grid matrix
// of Figure 2 (cluster identification on the worked example).
func BenchmarkFigure2(b *testing.B) {
	var nClusters int
	for i := 0; i < b.N; i++ {
		an, err := repro.AnalyzePattern(repro.FEGrid5(5))
		if err != nil {
			b.Fatal(err)
		}
		part := an.Sys().Partition(repro.PartitionOptions{Grain: 4, MinClusterWidth: 2})
		nClusters = len(part.Clusters)
	}
	b.ReportMetric(float64(nClusters), "clusters")
}

// BenchmarkFigure3 times the unit-block partitioning step alone (the
// triangle band split and rectangle grids of Figure 3) on LAP30.
func BenchmarkFigure3(b *testing.B) {
	lap := lap30(b)
	var units int
	for i := 0; i < b.N; i++ {
		part := core.NewPartition(lap.F, core.Options{Grain: 4, MinClusterWidth: 4})
		units = len(part.Units)
	}
	b.ReportMetric(float64(units), "units")
}

// BenchmarkFigure4 times the ten-category dependency engine (Figure 4)
// against the element-level oracle on LAP30.
func BenchmarkFigure4(b *testing.B) {
	lap := lap30(b)
	part := lap.An.Sys().Partition(core.Options{Grain: 4, MinClusterWidth: 4})
	ops := model.NewOps(lap.F)
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.NewPartition(lap.F, core.Options{Grain: 4, MinClusterWidth: 4})
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			part.DepsOracle(ops)
		}
	})
}

// BenchmarkExtMakespan regenerates the dependency-delay study (Ext-A).
func BenchmarkExtMakespan(b *testing.B) {
	ps := problems(b)
	var rows []tables.MakespanRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = tables.Makespan(ps)
	}
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		if r.Name == "LAP30" && r.P == 16 && r.Scheme == "block g=25" {
			b.ReportMetric(r.Efficiency, "LAP30-P16-eff")
		}
	}
}

// BenchmarkExtPartners regenerates the communication-partner study (Ext-B).
func BenchmarkExtPartners(b *testing.B) {
	ps := problems(b)
	var rows []tables.PartnersRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = tables.Partners(ps)
	}
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		if r.Name == "LAP30" && r.P == 32 {
			b.ReportMetric(r.WrapPartners, "LAP30-P32-wrap")
			b.ReportMetric(r.BlockPartners, "LAP30-P32-block")
		}
	}
}

// BenchmarkExtGrainSweep regenerates the grain ablation (Ext-C).
func BenchmarkExtGrainSweep(b *testing.B) {
	lap := lap30(b)
	grains := []int{2, 4, 8, 16, 25, 50, 100}
	var rows []tables.BlockRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = tables.BlockSweep(lap, 16, grains, []int{tables.DefaultWidth})
	}
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rows[len(rows)-1].Total), "g100-traffic")
}
