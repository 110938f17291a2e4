package tables

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/part2d"
	"repro/internal/strategy"
)

func loadLap(t testing.TB) *Problem {
	t.Helper()
	p, err := LoadNamed("LAP30")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// must unwraps a study's (rows, error) result.
func must[R any](rows R, err error) func(testing.TB) R {
	return func(t testing.TB) R {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
}

func TestTable1AllRows(t *testing.T) {
	ps, err := LoadSuite()
	if err != nil {
		t.Fatal(err)
	}
	rows := Table1(ps)
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if r.PaperN == 0 {
			t.Errorf("%s: missing paper data", r.Name)
		}
		if r.N == 0 || r.FactorNNZ < r.NNZ {
			t.Errorf("%s: implausible stats %+v", r.Name, r)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "LAP30") || !strings.Contains(out, "16697") {
		t.Errorf("formatted table missing expected content:\n%s", out)
	}
}

func TestTable2Shape(t *testing.T) {
	lap := loadLap(t)
	rows := must(Tables2and3([]*Problem{lap}))(t)
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3 (P sweep)", len(rows))
	}
	for _, r := range rows {
		// The paper's qualitative shape: g=25 communicates less than g=4.
		if r.TotalG25 >= r.TotalG4 {
			t.Errorf("P=%d: total g=25 %d not below g=4 %d", r.P, r.TotalG25, r.TotalG4)
		}
		if r.MeanG4 != r.TotalG4/int64(r.P) {
			t.Errorf("mean inconsistent with total")
		}
	}
	// Totals increase with P.
	if !(rows[0].TotalG4 < rows[1].TotalG4 && rows[1].TotalG4 < rows[2].TotalG4) {
		t.Errorf("traffic not increasing with P: %+v", rows)
	}
	_ = FormatTable2(rows)
}

func TestTable3Shape(t *testing.T) {
	lap := loadLap(t)
	rows := must(Tables2and3([]*Problem{lap}))(t)
	for _, r := range rows {
		if r.AG4 < 0 || r.AG25 < 0 {
			t.Errorf("negative imbalance: %+v", r)
		}
		if r.MeanWork != lap.Total/int64(r.P) {
			t.Errorf("mean work wrong: %+v", r)
		}
	}
	// Imbalance grows with P for both grains (paper's observation).
	if rows[2].AG25 <= rows[0].AG25 {
		t.Errorf("A(g25) not growing with P: %+v", rows)
	}
	_ = FormatTable3(rows)
}

func TestTable4Shape(t *testing.T) {
	lap := loadLap(t)
	rows := must(Table4(lap))(t)
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9 (3 widths x 3 P)", len(rows))
	}
	// Mean work is width-independent.
	for _, r := range rows {
		if r.MeanWork != lap.Total/int64(r.P) {
			t.Errorf("mean work wrong: %+v", r)
		}
	}
	_ = FormatTable4(rows)
}

func TestTable5Shape(t *testing.T) {
	lap := loadLap(t)
	rows := must(Table5([]*Problem{lap}))(t)
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 (P = 1,4,16,32)", len(rows))
	}
	if rows[0].P != 1 || rows[0].Total != 0 || rows[0].A != 0 {
		t.Errorf("P=1 row must be all zeros: %+v", rows[0])
	}
	// Wrap A stays small (paper: <= 0.35 across the suite at P<=32).
	for _, r := range rows {
		if r.A > 0.6 {
			t.Errorf("wrap imbalance %g implausibly high at P=%d", r.A, r.P)
		}
	}
	_ = FormatTable5(rows)
}

func TestBlockBeatsWrapHeadline(t *testing.T) {
	// Cross-table check of the paper's abstract: block-based partitioning
	// yields lower communication, wrap better balance.
	lap := loadLap(t)
	t2 := must(Tables2and3([]*Problem{lap}))(t)
	t3 := t2
	t5 := must(Table5([]*Problem{lap}))(t)
	for i, np := range DefaultProcs {
		var wrapRow *MappingRow
		for k := range t5 {
			if t5[k].P == np {
				wrapRow = &t5[k]
			}
		}
		if t2[i].TotalG25 >= wrapRow.Total {
			t.Errorf("P=%d: block g=25 traffic %d not below wrap %d", np, t2[i].TotalG25, wrapRow.Total)
		}
		if t3[i].AG25 <= wrapRow.A {
			t.Errorf("P=%d: block g=25 A %.3f not above wrap %.3f (trade-off)", np, t3[i].AG25, wrapRow.A)
		}
	}
}

func TestMakespanAndPartners(t *testing.T) {
	lap := loadLap(t)
	mk := must(Makespan([]*Problem{lap}))(t)
	if len(mk) != 9 { // 3 procs x (2 grains + wrap)
		t.Fatalf("%d makespan rows, want 9", len(mk))
	}
	for _, r := range mk {
		if r.Efficiency > r.BoundEff+1e-9 {
			t.Errorf("delay efficiency above bound: %+v", r)
		}
		if r.Makespan < r.CritPath {
			t.Errorf("makespan below critical path: %+v", r)
		}
	}
	_ = FormatMakespan(mk)

	pr := must(Partners([]*Problem{lap}))(t)
	for _, r := range pr {
		if r.BlockPartners > r.WrapPartners {
			t.Errorf("block partners %.1f above wrap %.1f at P=%d", r.BlockPartners, r.WrapPartners, r.P)
		}
	}
	_ = FormatPartners(pr)
}

func TestGrainSweepMonotoneTraffic(t *testing.T) {
	lap := loadLap(t)
	rows := must(BlockSweep(lap, 16, []int{2, 4, 8, 16, 25, 50, 100}, []int{DefaultWidth}))(t)
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Unit count decreases with grain.
	for i := 1; i < len(rows); i++ {
		if rows[i].Units > rows[i-1].Units {
			t.Errorf("units grew with grain: %+v -> %+v", rows[i-1], rows[i])
		}
	}
	// Traffic at the largest grain is below the smallest.
	if rows[len(rows)-1].Total >= rows[0].Total {
		t.Errorf("traffic did not fall across the sweep: %+v", rows)
	}
	_ = FormatGrainSweep("LAP30", 16, rows)
}

// TestPlanResolverAxis pins what the one resolver accepts — every
// registered 1D strategy, every native 2D mapper, every col2d lift of a
// liftable base, and bare col2d as the lift of its default base — that
// ValidLabel agrees with it without building a plan, and that everything
// else fails with the error of the registry it was looked up in.
func TestPlanResolverAxis(t *testing.T) {
	p := commGoldenProblem(t)
	labels := slices.Concat(strategy.Names(), Labels2D())
	if want := len(strategy.Names()) + len(part2d.Names2D()) - 1 + len(part2d.LiftBases()); len(labels) != want {
		t.Fatalf("label axis has %d entries, want %d", len(labels), want)
	}
	for _, label := range append(labels, "col2d") {
		c, err := p.Cell(label, 4, Production)
		if err != nil || !ValidLabel(label) {
			t.Errorf("%s: err %v, ValidLabel %v", label, err, ValidLabel(label))
			continue
		}
		if is2D := !slices.Contains(strategy.Names(), label); c.Plan.Is2D() != is2D || c.Strategy != label {
			t.Errorf("%s: resolved to a %v-2D plan labelled %q", label, c.Plan.Is2D(), c.Strategy)
		}
	}
	lifted, err := p.Cell("col2d:wrap", 4, Production)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := p.Cell("col2d", 4, Production)
	if err != nil || !slices.Equal(bare.Plan.S2.Owner, lifted.Plan.S2.Owner) || bare.Plan.TrafficTotal() != lifted.Plan.TrafficTotal() {
		t.Errorf("bare col2d (err %v) is not the lift of its default base wrap", err)
	}
	for label, want := range map[string]string{
		"col2d:block":  `part2d: "block" is not column-granular`,
		"col2d:refine": "strategy: refine cannot use itself as base",
		"col2d:zzz":    `strategy: unknown strategy "zzz"`,
		"col2d:":       "strategy: unknown strategy",
		"zzz":          `strategy: unknown strategy "zzz"`,
		"":             "strategy: unknown strategy",
	} {
		_, err := p.Cell(label, 4, Production)
		if err == nil || !strings.Contains(err.Error(), want) || ValidLabel(label) {
			t.Errorf("%q: err %v (want %q), ValidLabel %v", label, err, want, ValidLabel(label))
		}
	}
	if _, err := p.Cell("wrap", 0, Production); err == nil || err.Error() != "pipeline: invalid processor count 0" {
		t.Errorf("P=0: err %v, want pipeline's invalid processor count", err)
	}
	if _, err := BlockSweep(p, 0, []int{25}, []int{4}); err == nil || err.Error() != "pipeline: invalid processor count 0" {
		t.Errorf("BlockSweep at P=0: err %v, want pipeline's invalid processor count", err)
	}
}
