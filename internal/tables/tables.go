// Package tables is the one place a study is computed: every table of the
// paper's evaluation (Section 4), every extension study of EXPERIMENTS.md
// and every CSV series of cmd/sweep is one function from problems,
// processor counts, strategy labels, mapping options and a comm model to
// typed rows, reaching every schedule through a pipeline.Plan. Text tables
// (measured values side by side with the published ones), CSV series and
// bench-ledger records are renderers of those rows; cmd/paperbench and
// cmd/sweep only parse flags and pick a (study, renderer) pair.
package tables

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/part2d"
	"repro/internal/pipeline"
	"repro/internal/sparse"
	"repro/internal/strategy"
	"repro/internal/symbolic"
)

// DefaultProcs is the paper's processor sweep for Tables 2-4.
var DefaultProcs = []int{4, 16, 32}

// WrapProcs is the paper's sweep for Table 5.
var WrapProcs = []int{1, 4, 16, 32}

// DefaultWidth is the minimum cluster width used for Tables 2, 3 and 5.
const DefaultWidth = 4

// Production is the paper's production partitioning (grain 25, width 4,
// the Tables 2-3 setting): what every 1D study maps with unless its
// caller varies the knobs.
var Production = strategy.Options{Part: core.Options{Grain: 25, MinClusterWidth: DefaultWidth}}

// Problem is the table generators' view of one test matrix: the matrix
// (with values, for the measured studies) and its staged pattern analysis
// (ordering, symbolic factor, work model, partition cache).
type Problem struct {
	Meta  gen.TestMatrix
	A     *sparse.Matrix
	An    *pipeline.Analysis
	F     *symbolic.Factor
	Total int64
}

// LoadProblem runs ordering and symbolic factorization for a test matrix
// through the staged pipeline, so partitions, schedules and the strategy
// subsystem are all served from the analysis artifact's caches.
func LoadProblem(tm gen.TestMatrix) (*Problem, error) {
	return newProblem(tm, tm.Build())
}

// LoadNamed loads one suite matrix by (case-insensitive) name.
func LoadNamed(name string) (*Problem, error) {
	a, tm, err := gen.ByName(name)
	if err != nil {
		return nil, err
	}
	return newProblem(tm, a)
}

// newProblem analyzes a under the MMD ordering, the paper's choice for
// every experiment.
func newProblem(tm gen.TestMatrix, a *sparse.Matrix) (*Problem, error) {
	an, err := pipeline.NewAnalysis(a)
	if err != nil {
		return nil, fmt.Errorf("tables: %s: %w", tm.Name, err)
	}
	return &Problem{Meta: tm, A: a, An: an, F: an.F, Total: an.Total}, nil
}

// LoadSuite loads all five test problems of Table 1.
func LoadSuite() ([]*Problem, error) {
	var out []*Problem
	for _, tm := range gen.Suite() {
		p, err := LoadProblem(tm)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ------------------------------------------------------- plans and cells

// Labels2D enumerates the 2D strategy axis the Ext-T and Ext-W studies
// and the tile2d/measure series share: every native 2D
// mapper (col2d excluded, it is parameterized), then the col2d lift of
// every column-granular 1D strategy, spelled "col2d:<base>".
func Labels2D() []string {
	labels := native2D()
	for _, base := range part2d.LiftBases() {
		labels = append(labels, "col2d:"+base)
	}
	return labels
}

// native2D lists the 2D mappers that take no base strategy.
func native2D() []string {
	return slices.DeleteFunc(part2d.Names2D(), func(name string) bool { return name == "col2d" })
}

// ValidLabel reports whether Cell can resolve label: a registered 1D
// strategy, a 2D mapper, or a col2d lift of a column-granular base.
func ValidLabel(label string) bool {
	return slices.Contains(strategy.Names(), label) ||
		slices.Contains(part2d.Names2D(), label) || slices.Contains(Labels2D(), label)
}

// block returns the block plan at grain g and minimum cluster width w.
func (p *Problem) block(g, w, np int) (*pipeline.Plan, error) {
	return p.An.Plan("block", np, strategy.Options{Part: core.Options{Grain: g, MinClusterWidth: w}})
}

// wrap returns the wrap plan.
func (p *Problem) wrap(np int) (*pipeline.Plan, error) {
	return p.An.Plan("wrap", np, strategy.Options{})
}

// blocks returns the block plans at the two grains of Tables 2-3.
func (p *Problem) blocks(np int) (g4, g25 *pipeline.Plan, err error) {
	if g4, err = p.block(4, DefaultWidth, np); err != nil {
		return nil, nil, err
	}
	g25, err = p.block(25, DefaultWidth, np)
	return g4, g25, err
}

// pair returns the two mappings the extension studies compare: block at
// the production partitioning, and wrap.
func (p *Problem) pair(np int) (block, wrap *pipeline.Plan, err error) {
	if block, err = p.block(25, DefaultWidth, np); err != nil {
		return nil, nil, err
	}
	wrap, err = p.wrap(np)
	return block, wrap, err
}

// Cell is one (matrix, strategy label, P) point of a study, with the plan
// it was computed from: the row types of the label-axis studies embed it,
// and the ledger and trace renderers replay its plan.
type Cell struct {
	Name     string
	P        int
	Strategy string
	Plan     *pipeline.Plan
}

func (c Cell) cell() Cell { return c }

// Cell is the one plan resolver: label is a registered 1D strategy, a 2D
// mapper (bare "col2d" lifts its default base), or "col2d:<base>" for the
// col2d lift of that base. Unknown names and bases that cannot be lifted
// fail with the registries' own errors, an invalid np with pipeline's.
// The block-partition knobs of opts apply to 1D strategies only — a 2D
// mapper tiles the analysis factor — so one option set serves both axes.
func (p *Problem) Cell(label string, np int, opts strategy.Options) (c Cell, err error) {
	base, lifted := strings.CutPrefix(label, "col2d:")
	switch {
	case lifted && base != "":
		opts.Part, opts.Base = core.Options{}, base
		c.Plan, err = p.An.Plan2D("col2d", np, opts)
	case slices.Contains(part2d.Names2D(), label):
		opts.Part = core.Options{}
		c.Plan, err = p.An.Plan2D(label, np, opts)
	default:
		c.Plan, err = p.An.Plan(label, np, opts)
	}
	c.Name, c.P, c.Strategy = p.Meta.Name, np, label
	return c, err
}

// Cells projects the rows of a label-axis study onto their cells.
func Cells[R interface{ cell() Cell }](rows []R) []Cell {
	cells := make([]Cell, len(rows))
	for i, r := range rows {
		cells[i] = r.cell()
	}
	return cells
}

// study evaluates row on every cell of each problem's (P, label) grid,
// P-major: each processor count's labels are consecutive, the groups the
// Best columns are marked in.
func study[R any](problems []*Problem, procs []int, labels []string, opts strategy.Options, row func(Cell) (R, error)) ([]R, error) {
	return overSuite(problems, procs, func(p *Problem, np int) ([]R, error) {
		rows := make([]R, len(labels))
		for i, label := range labels {
			c, err := p.Cell(label, np, opts)
			if err == nil {
				rows[i], err = row(c)
			}
			if err != nil {
				return nil, err
			}
		}
		return rows, nil
	})
}

// markBest flags, within each consecutive group of n rows (one processor
// count), the row with the lowest span; at returns a row's span and flag.
func markBest[R any](rows []R, n int, at func(*R) (int64, *bool)) {
	for g := 0; g < len(rows); g += n {
		bestSpan, best := at(&rows[g])
		for i := g + 1; i < g+n; i++ {
			if span, flag := at(&rows[i]); span < bestSpan {
				bestSpan, best = span, flag
			}
		}
		*best = true
	}
}

// overSuite collects the rows of every (problem, P) cell in suite order,
// stopping at the first error.
func overSuite[R any](problems []*Problem, procs []int, rows func(p *Problem, np int) ([]R, error)) ([]R, error) {
	var out []R
	for _, p := range problems {
		for _, np := range procs {
			rs, err := rows(p, np)
			if err != nil {
				return nil, err
			}
			out = append(out, rs...)
		}
	}
	return out, nil
}

// -------------------------------------------------------------- rendering

// text renders a titled, tab-aligned table: title (newline-terminated, may
// span several lines), the tab-separated column header, and one line per
// row.
func text[R any](title, header string, rows []R, line func(R) string) string {
	var sb strings.Builder
	sb.WriteString(title)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	lines(w, header, rows, line)
	w.Flush()
	return sb.String()
}

// csv renders a CSV series the same way under a comma-separated header
// (labels and numbers never need quoting).
func csv[R any](header string, rows []R, line func(R) string) string {
	var sb strings.Builder
	lines(&sb, header, rows, line)
	return sb.String()
}

func lines[R any](w io.Writer, header string, rows []R, line func(R) string) {
	fmt.Fprintln(w, header)
	for _, r := range rows {
		fmt.Fprintln(w, line(r))
	}
}

// star renders a Best flag.
var star = map[bool]string{true: "*"}

// ---------------------------------------------------------------- Table 1

// Table1Row compares a generated matrix with the paper's Table 1.
type Table1Row struct {
	Name                           string
	N, NNZ, FactorNNZ              int
	PaperN, PaperNNZ, PaperFactNNZ int
	Description                    string
}

// Table1 computes the matrix statistics table.
func Table1(problems []*Problem) []Table1Row {
	var rows []Table1Row
	for _, p := range problems {
		paper := paperTable1[p.Meta.Name]
		rows = append(rows, Table1Row{
			Name: p.Meta.Name,
			N:    p.A.N, NNZ: p.A.NNZ(), FactorNNZ: p.F.NNZ(),
			PaperN: paper[0], PaperNNZ: paper[1], PaperFactNNZ: paper[2],
			Description: p.Meta.Description,
		})
	}
	return rows
}

// FormatTable1 renders Table 1 with paper values alongside.
func FormatTable1(rows []Table1Row) string {
	return text("Table 1: Test matrices (measured vs paper)\n",
		"Application\tn\tnnz(A)\tnnz(L)\tpaper n\tpaper nnz(A)\tpaper nnz(L)", rows,
		func(r Table1Row) string {
			return fmt.Sprintf("%s\t%d\t%d\t%d\t%d\t%d\t%d",
				r.Name, r.N, r.NNZ, r.FactorNNZ, r.PaperN, r.PaperNNZ, r.PaperFactNNZ)
		})
}

// ---------------------------------------------------------- Tables 2 and 3

// GrainPairRow is the block mapping of one (matrix, P) at the two grain
// sizes the paper reports (4 and 25, width 4). One experiment, two
// tables: the communication columns print as Table 2, the
// work-distribution columns as Table 3.
type GrainPairRow struct {
	Name              string
	P                 int
	TotalG4, TotalG25 int64
	MeanG4, MeanG25   int64
	MeanWork          int64
	AG4, AG25         float64
	Comm              paperComm
	Work              paperWork
}

// Tables2and3 computes block-mapping communication and work distribution
// (grain 4 and 25, width 4).
func Tables2and3(problems []*Problem) ([]GrainPairRow, error) {
	return overSuite(problems, DefaultProcs, func(p *Problem, np int) ([]GrainPairRow, error) {
		g4, g25, err := p.blocks(np)
		if err != nil {
			return nil, err
		}
		t4, t25 := g4.TrafficTotal(), g25.TrafficTotal()
		return []GrainPairRow{{
			Name: p.Meta.Name, P: np,
			TotalG4: t4, TotalG25: t25,
			MeanG4: t4 / int64(np), MeanG25: t25 / int64(np),
			MeanWork: p.Total / int64(np),
			AG4:      g4.S1.Imbalance(), AG25: g25.S1.Imbalance(),
			Comm: paperTable2[p.Meta.Name][np], Work: paperTable3[p.Meta.Name][np],
		}}, nil
	})
}

// FormatTable2 renders the block-mapping communication table.
func FormatTable2(rows []GrainPairRow) string {
	return text("Table 2: Block mapping communication (width 4; measured | paper)\n",
		"Appl\tP\tTotal g=4\tTotal g=25\tMean g=4\tMean g=25\t|\tpTotal g=4\tpTotal g=25\tpMean g=4\tpMean g=25", rows,
		func(r GrainPairRow) string {
			return fmt.Sprintf("%s\t%d\t%d\t%d\t%d\t%d\t|\t%d\t%d\t%d\t%d",
				r.Name, r.P, r.TotalG4, r.TotalG25, r.MeanG4, r.MeanG25,
				r.Comm.TotalG4, r.Comm.TotalG25, r.Comm.MeanG4, r.Comm.MeanG25)
		})
}

// FormatTable3 renders the work distribution table.
func FormatTable3(rows []GrainPairRow) string {
	return text("Table 3: Block mapping work distribution (measured | paper)\n",
		"Appl\tP\tMean\tA g=4\tA g=25\t|\tpMean\tpA g=4\tpA g=25", rows,
		func(r GrainPairRow) string {
			return fmt.Sprintf("%s\t%d\t%d\t%.2f\t%.2f\t|\t%d\t%.2f\t%.2f",
				r.Name, r.P, r.MeanWork, r.AG4, r.AG25, r.Work.Mean, r.Work.AG4, r.Work.AG5)
		})
}

// ----------------------------------------------------------- Tables 4 and 5

// MappingRow is one mapping's communication and work distribution at one
// P: the row of Table 4 (block, g=4, keyed by cluster width) and of
// Table 5 (wrap, keyed by matrix name), which print the same columns.
type MappingRow struct {
	Name     string // matrix (Table 5)
	Width, P int    // Width is the minimum cluster width (Table 4)
	Total    int64
	Mean     int64
	MeanWork int64
	A        float64
	Paper    paperMapping
}

func (p *Problem) mappingRow(pl *pipeline.Plan, width int, paper paperMapping) MappingRow {
	total, np := pl.TrafficTotal(), int64(pl.P)
	return MappingRow{
		Name: p.Meta.Name, Width: width, P: pl.P,
		Total: total, Mean: total / np, MeanWork: p.Total / np, A: pl.S1.Imbalance(),
		Paper: paper,
	}
}

// Table4 computes the width sweep for LAP30 (grain 4).
func Table4(lap *Problem) ([]MappingRow, error) {
	var rows []MappingRow
	for _, width := range []int{2, 4, 8} {
		for _, np := range DefaultProcs {
			pl, err := lap.block(4, width, np)
			if err != nil {
				return nil, err
			}
			rows = append(rows, lap.mappingRow(pl, width, paperTable4[width][np]))
		}
	}
	return rows, nil
}

// Table5 computes the wrap-mapping table.
func Table5(problems []*Problem) ([]MappingRow, error) {
	return overSuite(problems, WrapProcs, func(p *Problem, np int) ([]MappingRow, error) {
		pl, err := p.wrap(np)
		if err != nil {
			return nil, err
		}
		return []MappingRow{p.mappingRow(pl, 0, paperTable5[p.Meta.Name][np])}, nil
	})
}

// formatMapping renders Table 4 or 5; key prints a row's first column.
func formatMapping(title, keyHeader string, rows []MappingRow, key func(MappingRow) any) string {
	return text(title, keyHeader+"\tP\tTotal\tMean\tMean work\tA\t|\tpTotal\tpMean\tpMean work\tpA", rows,
		func(r MappingRow) string {
			return fmt.Sprintf("%v\t%d\t%d\t%d\t%d\t%.2f\t|\t%d\t%d\t%d\t%.2f",
				key(r), r.P, r.Total, r.Mean, r.MeanWork, r.A, r.Paper.Total, r.Paper.Mean, r.Paper.MeanWork,
				r.Paper.A)
		})
}

// FormatTable4 renders the width variation table.
func FormatTable4(rows []MappingRow) string {
	return formatMapping("Table 4: Variation with minimum cluster width, LAP30, g=4 (measured | paper)\n",
		"Width", rows, func(r MappingRow) any { return r.Width })
}

// FormatTable5 renders the wrap-mapping table.
func FormatTable5(rows []MappingRow) string {
	return formatMapping("Table 5: Wrap mapping (measured | paper)\n",
		"Appl", rows, func(r MappingRow) any { return r.Name })
}

// ------------------------------------------------------------- Extensions

// MakespanRow quantifies dependency delays (extension Ext-A): the paper
// asserts the allocator keeps idle time small; this measures it.
type MakespanRow struct {
	Name       string
	P          int
	Scheme     string // "block g=4", "block g=25", "wrap"
	Makespan   int64
	CritPath   int64
	Efficiency float64 // with dependency delays
	BoundEff   float64 // the paper's 1/(1+A) bound (no delays)
	IdlePct    float64
}

// Makespan computes the dependency-delay study.
func Makespan(problems []*Problem) ([]MakespanRow, error) {
	return overSuite(problems, DefaultProcs, func(p *Problem, np int) ([]MakespanRow, error) {
		g4, g25, err := p.blocks(np)
		if err != nil {
			return nil, err
		}
		wrap, err := p.wrap(np)
		if err != nil {
			return nil, err
		}
		var rows []MakespanRow
		for _, s := range []struct {
			scheme string
			pl     *pipeline.Plan
		}{{"block g=4", g4}, {"block g=25", g25}, {"wrap", wrap}} {
			r := s.pl.Makespan()
			rows = append(rows, MakespanRow{
				Name: p.Meta.Name, P: np, Scheme: s.scheme,
				Makespan: r.Makespan, CritPath: exec.CriticalPath(s.pl.Tasks),
				Efficiency: r.Efficiency, BoundEff: s.pl.S1.Efficiency(),
				IdlePct: r.IdlePct(),
			})
		}
		return rows, nil
	})
}

// FormatMakespan renders the dependency-delay table.
func FormatMakespan(rows []MakespanRow) string {
	return text("Ext-A: Dependency delays (makespan simulation; eff vs the paper's 1/(1+A) bound)\n",
		"Appl\tP\tScheme\tMakespan\tCritPath\tEff\tBound 1/(1+A)\tIdle%", rows,
		func(r MakespanRow) string {
			return fmt.Sprintf("%s\t%d\t%s\t%d\t%d\t%.3f\t%.3f\t%.1f",
				r.Name, r.P, r.Scheme, r.Makespan, r.CritPath, r.Efficiency, r.BoundEff, r.IdlePct)
		})
}

// PartnersRow quantifies communication locality (extension Ext-B): the
// paper's Section 5 claims wrap mapping leads to many communication
// partners per processor while the block scheme confines traffic.
// The hop columns weight each fetched element by the hypercube distance
// between owner and reader (the topology of the paper's era).
type PartnersRow struct {
	Name            string
	P               int
	WrapPartners    float64
	BlockPartners   float64 // g=25
	WrapMaxTraffic  int64
	BlockMaxTraffic int64
	WrapHops        int64
	BlockHops       int64
}

// Partners computes the communication-partner study.
func Partners(problems []*Problem) ([]PartnersRow, error) {
	return overSuite(problems, DefaultProcs, func(p *Problem, np int) ([]PartnersRow, error) {
		block, wrap, err := p.pair(np)
		if err != nil {
			return nil, err
		}
		br, wr := block.Traffic(), wrap.Traffic()
		return []PartnersRow{{
			Name: p.Meta.Name, P: np,
			WrapPartners:    wr.MeanPartners(),
			BlockPartners:   br.MeanPartners(),
			WrapMaxTraffic:  wr.MaxPerProc(),
			BlockMaxTraffic: br.MaxPerProc(),
			WrapHops:        wr.HopWeightedTraffic(),
			BlockHops:       br.HopWeightedTraffic(),
		}}, nil
	})
}

// FormatPartners renders the partner study.
func FormatPartners(rows []PartnersRow) string {
	return text("Ext-B: Communication partners per processor (wrap vs block g=25)\n",
		"Appl\tP\tWrap partners\tBlock partners\tWrap max traffic\tBlock max traffic\tWrap hop-traffic\tBlock hop-traffic", rows,
		func(r PartnersRow) string {
			return fmt.Sprintf("%s\t%d\t%.1f\t%.1f\t%d\t%d\t%d\t%d",
				r.Name, r.P, r.WrapPartners, r.BlockPartners, r.WrapMaxTraffic, r.BlockMaxTraffic, r.WrapHops,
				r.BlockHops)
		})
}

// BlockRow is one point of the block-partitioning ablation: the grain
// sweep of Ext-C and the grain and width series of cmd/sweep.
type BlockRow struct {
	Grain, Width    int
	Units, Clusters int
	Total           int64
	A               float64
}

// BlockSweep maps one problem with the block scheme at every (grain,
// width) pair, grain-major, for one processor count — the communication /
// load-balance trade-off curve underlying Tables 2-4.
func BlockSweep(p *Problem, np int, grains, widths []int) ([]BlockRow, error) {
	var rows []BlockRow
	for _, g := range grains {
		for _, w := range widths {
			pl, err := p.block(g, w, np)
			if err != nil {
				return nil, err
			}
			rows = append(rows, BlockRow{
				Grain: g, Width: w, Units: len(pl.S1.Part.Units), Clusters: len(pl.S1.Part.Clusters),
				Total: pl.TrafficTotal(), A: pl.S1.Imbalance(),
			})
		}
	}
	return rows, nil
}

// FormatGrainSweep renders the ablation curve.
func FormatGrainSweep(name string, np int, rows []BlockRow) string {
	return text(fmt.Sprintf("Ext-C: Grain sweep, %s, P=%d (communication vs load balance)\n", name, np),
		"Grain\tUnits\tTotal traffic\tA", rows,
		func(r BlockRow) string {
			return fmt.Sprintf("%d\t%d\t%d\t%.2f", r.Grain, r.Units, r.Total, r.A)
		})
}

// GrainCSV renders the grain series of cmd/sweep.
func GrainCSV(rows []BlockRow) string {
	return csv("grain,units,traffic,imbalance", rows,
		func(r BlockRow) string {
			return fmt.Sprintf("%d,%d,%d,%.4f", r.Grain, r.Units, r.Total, r.A)
		})
}

// WidthCSV renders the width series of cmd/sweep.
func WidthCSV(rows []BlockRow) string {
	return csv("width,units,clusters,traffic,imbalance", rows,
		func(r BlockRow) string {
			return fmt.Sprintf("%d,%d,%d,%d,%.4f", r.Width, r.Units, r.Clusters, r.Total, r.A)
		})
}
