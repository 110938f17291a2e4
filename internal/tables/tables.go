// Package tables regenerates every table of the paper's evaluation
// (Section 4) and the extension studies described in EXPERIMENTS.md, printing
// measured values side by side with the published ones.
package tables

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

// DefaultProcs is the paper's processor sweep for Tables 2-4.
var DefaultProcs = []int{4, 16, 32}

// WrapProcs is the paper's sweep for Table 5.
var WrapProcs = []int{1, 4, 16, 32}

// DefaultGrains are the two grain sizes of Tables 2-3.
var DefaultGrains = []int{4, 25}

// DefaultWidth is the minimum cluster width used for Tables 2, 3 and 5.
const DefaultWidth = 4

// Problem is the table generators' view of one test matrix: the matrix
// (with values, for the measured studies) and its staged pattern analysis
// (ordering, symbolic factor, work model, partition cache).
type Problem struct {
	Meta     gen.TestMatrix
	A        *sparse.Matrix
	An       *pipeline.Analysis
	F        *symbolic.Factor
	Ops      *model.Ops
	ElemWork []int64
	Total    int64
}

// LoadProblem runs ordering and symbolic factorization for a test matrix
// through the staged pipeline, so partitions, schedules and the strategy
// subsystem are all served from the analysis artifact's caches.
func LoadProblem(tm gen.TestMatrix) (*Problem, error) {
	a := tm.Build()
	an, err := pipeline.NewAnalysis(a)
	if err != nil {
		return nil, fmt.Errorf("tables: %s: %w", tm.Name, err)
	}
	return &Problem{
		Meta:     tm,
		A:        a,
		An:       an,
		F:        an.F,
		Ops:      an.Ops,
		ElemWork: an.ElemWork,
		Total:    an.Total,
	}, nil
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

// Part returns the (grain, width) partition, computed once per option
// set in the analysis' goroutine-safe partition cache.
func (p *Problem) Part(g, w int) *core.Partition {
	return p.An.Sys().Partition(core.Options{Grain: g, MinClusterWidth: w})
}

// mustProcs panics on a non-positive processor count with the package
// prefix. The table builders take caller-chosen P values straight from
// CLI flags; validating here keeps the failure at the entry point rather
// than a zero-length per-processor slice deep in a simulator.
func mustProcs(procs int) {
	if procs < 1 {
		panic(fmt.Sprintf("tables: invalid processor count %d", procs))
	}
}

// Block runs the block mapping and its traffic simulation.
func (p *Problem) Block(g, w, procs int) (*sched.Schedule, *traffic.Result) {
	mustProcs(procs)
	s := sched.BlockMap(p.Part(g, w), procs)
	return s, traffic.Simulate(p.Ops, s)
}

// Wrap runs the wrap mapping and its traffic simulation.
func (p *Problem) Wrap(procs int) (*sched.Schedule, *traffic.Result) {
	mustProcs(procs)
	s := sched.WrapMap(p.F, p.ElemWork, procs)
	return s, traffic.Simulate(p.Ops, s)
}

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
		paper := PaperTable1[p.Meta.Name]
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
	var sb strings.Builder
	sb.WriteString("Table 1: Test matrices (measured vs paper)\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Application\tn\tnnz(A)\tnnz(L)\tpaper n\tpaper nnz(A)\tpaper nnz(L)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Name, r.N, r.NNZ, r.FactorNNZ, r.PaperN, r.PaperNNZ, r.PaperFactNNZ)
	}
	w.Flush()
	return sb.String()
}

// ---------------------------------------------------------------- Table 2

// Table2Row is block-mapping communication for one (matrix, P).
type Table2Row struct {
	Name              string
	P                 int
	TotalG4, TotalG25 int64
	MeanG4, MeanG25   int64
	Paper             paperComm
}

// Table2 computes block-mapping communication (grain 4 and 25, width 4).
func Table2(problems []*Problem) []Table2Row {
	var rows []Table2Row
	for _, p := range problems {
		for _, np := range DefaultProcs {
			_, r4 := p.Block(4, DefaultWidth, np)
			_, r25 := p.Block(25, DefaultWidth, np)
			rows = append(rows, Table2Row{
				Name: p.Meta.Name, P: np,
				TotalG4: r4.Total, TotalG25: r25.Total,
				MeanG4: r4.Total / int64(np), MeanG25: r25.Total / int64(np),
				Paper: PaperTable2[p.Meta.Name][np],
			})
		}
	}
	return rows
}

// FormatTable2 renders the block-mapping communication table.
func FormatTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2: Block mapping communication (width 4; measured | paper)\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Appl\tP\tTotal g=4\tTotal g=25\tMean g=4\tMean g=25\t|\tpTotal g=4\tpTotal g=25\tpMean g=4\tpMean g=25")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t|\t%d\t%d\t%d\t%d\n",
			r.Name, r.P, r.TotalG4, r.TotalG25, r.MeanG4, r.MeanG25,
			r.Paper.TotalG4, r.Paper.TotalG25, r.Paper.MeanG4, r.Paper.MeanG25)
	}
	w.Flush()
	return sb.String()
}

// ---------------------------------------------------------------- Table 3

// Table3Row is block-mapping work distribution for one (matrix, P).
type Table3Row struct {
	Name      string
	P         int
	MeanWork  int64
	AG4, AG25 float64
	Paper     paperWork
}

// Table3 computes the block-mapping work distribution (grain 4 and 25).
func Table3(problems []*Problem) []Table3Row {
	var rows []Table3Row
	for _, p := range problems {
		for _, np := range DefaultProcs {
			s4, _ := p.Block(4, DefaultWidth, np)
			s25, _ := p.Block(25, DefaultWidth, np)
			rows = append(rows, Table3Row{
				Name: p.Meta.Name, P: np,
				MeanWork: p.Total / int64(np),
				AG4:      s4.Imbalance(), AG25: s25.Imbalance(),
				Paper: PaperTable3[p.Meta.Name][np],
			})
		}
	}
	return rows
}

// FormatTable3 renders the work distribution table.
func FormatTable3(rows []Table3Row) string {
	var sb strings.Builder
	sb.WriteString("Table 3: Block mapping work distribution (measured | paper)\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Appl\tP\tMean\tA g=4\tA g=25\t|\tpMean\tpA g=4\tpA g=25")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\t%.2f\t|\t%d\t%.2f\t%.2f\n",
			r.Name, r.P, r.MeanWork, r.AG4, r.AG25,
			r.Paper.Mean, r.Paper.AG4, r.Paper.AG5)
	}
	w.Flush()
	return sb.String()
}

// ---------------------------------------------------------------- Table 4

// Table4Row is the cluster-width variation for LAP30 at g=4.
type Table4Row struct {
	Width, P int
	Total    int64
	Mean     int64
	MeanWork int64
	A        float64
	Paper    paperWidth
}

// Table4 computes the width sweep for LAP30 (grain 4).
func Table4(lap *Problem) []Table4Row {
	var rows []Table4Row
	for _, width := range []int{2, 4, 8} {
		for _, np := range DefaultProcs {
			s, r := lap.Block(4, width, np)
			rows = append(rows, Table4Row{
				Width: width, P: np,
				Total: r.Total, Mean: r.Total / int64(np),
				MeanWork: lap.Total / int64(np), A: s.Imbalance(),
				Paper: PaperTable4[width][np],
			})
		}
	}
	return rows
}

// FormatTable4 renders the width variation table.
func FormatTable4(rows []Table4Row) string {
	var sb strings.Builder
	sb.WriteString("Table 4: Variation with minimum cluster width, LAP30, g=4 (measured | paper)\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Width\tP\tTotal\tMean\tMean work\tA\t|\tpTotal\tpMean\tpMean work\tpA")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%.2f\t|\t%d\t%d\t%d\t%.2f\n",
			r.Width, r.P, r.Total, r.Mean, r.MeanWork, r.A,
			r.Paper.Total, r.Paper.Mean, r.Paper.MeanWork, r.Paper.A)
	}
	w.Flush()
	return sb.String()
}

// ---------------------------------------------------------------- Table 5

// Table5Row is the wrap-mapping behaviour for one (matrix, P).
type Table5Row struct {
	Name     string
	P        int
	Total    int64
	Mean     int64
	MeanWork int64
	A        float64
	Paper    paperWrap
}

// Table5 computes the wrap-mapping table.
func Table5(problems []*Problem) []Table5Row {
	var rows []Table5Row
	for _, p := range problems {
		for _, np := range WrapProcs {
			s, r := p.Wrap(np)
			rows = append(rows, Table5Row{
				Name: p.Meta.Name, P: np,
				Total: r.Total, Mean: r.Total / int64(np),
				MeanWork: p.Total / int64(np), A: s.Imbalance(),
				Paper: PaperTable5[p.Meta.Name][np],
			})
		}
	}
	return rows
}

// FormatTable5 renders the wrap-mapping table.
func FormatTable5(rows []Table5Row) string {
	var sb strings.Builder
	sb.WriteString("Table 5: Wrap mapping (measured | paper)\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Appl\tP\tTotal\tMean\tMean work\tA\t|\tpTotal\tpMean\tpMean work\tpA")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.2f\t|\t%d\t%d\t%d\t%.2f\n",
			r.Name, r.P, r.Total, r.Mean, r.MeanWork, r.A,
			r.Paper.Total, r.Paper.Mean, r.Paper.MeanWork, r.Paper.A)
	}
	w.Flush()
	return sb.String()
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
func Makespan(problems []*Problem) []MakespanRow {
	var rows []MakespanRow
	for _, p := range problems {
		for _, np := range DefaultProcs {
			for _, g := range DefaultGrains {
				s, _ := p.Block(g, DefaultWidth, np)
				tasks := exec.BlockTasks(p.Part(g, DefaultWidth), s)
				r := exec.Simulate(tasks, np, exec.SimOptions{})
				rows = append(rows, MakespanRow{
					Name: p.Meta.Name, P: np, Scheme: fmt.Sprintf("block g=%d", g),
					Makespan: r.Makespan, CritPath: exec.CriticalPath(tasks),
					Efficiency: r.Efficiency, BoundEff: s.Efficiency(),
					IdlePct: r.IdlePct(),
				})
			}
			ws, _ := p.Wrap(np)
			tasks := exec.ColumnTasks(p.F, p.Ops, p.ElemWork, np)
			r := exec.Simulate(tasks, np, exec.SimOptions{})
			rows = append(rows, MakespanRow{
				Name: p.Meta.Name, P: np, Scheme: "wrap",
				Makespan: r.Makespan, CritPath: exec.CriticalPath(tasks),
				Efficiency: r.Efficiency, BoundEff: ws.Efficiency(),
				IdlePct: r.IdlePct(),
			})
		}
	}
	return rows
}

// FormatMakespan renders the dependency-delay table.
func FormatMakespan(rows []MakespanRow) string {
	var sb strings.Builder
	sb.WriteString("Ext-A: Dependency delays (makespan simulation; eff vs the paper's 1/(1+A) bound)\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Appl\tP\tScheme\tMakespan\tCritPath\tEff\tBound 1/(1+A)\tIdle%")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%.3f\t%.3f\t%.1f\n",
			r.Name, r.P, r.Scheme, r.Makespan, r.CritPath, r.Efficiency, r.BoundEff, r.IdlePct)
	}
	w.Flush()
	return sb.String()
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
func Partners(problems []*Problem) []PartnersRow {
	var rows []PartnersRow
	for _, p := range problems {
		for _, np := range DefaultProcs {
			_, wr := p.Wrap(np)
			_, br := p.Block(25, DefaultWidth, np)
			rows = append(rows, PartnersRow{
				Name: p.Meta.Name, P: np,
				WrapPartners:    wr.MeanPartners(),
				BlockPartners:   br.MeanPartners(),
				WrapMaxTraffic:  wr.MaxPerProc(),
				BlockMaxTraffic: br.MaxPerProc(),
				WrapHops:        wr.HopWeightedTraffic(),
				BlockHops:       br.HopWeightedTraffic(),
			})
		}
	}
	return rows
}

// FormatPartners renders the partner study.
func FormatPartners(rows []PartnersRow) string {
	var sb strings.Builder
	sb.WriteString("Ext-B: Communication partners per processor (wrap vs block g=25)\n")
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Appl\tP\tWrap partners\tBlock partners\tWrap max traffic\tBlock max traffic\tWrap hop-traffic\tBlock hop-traffic")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%d\t%d\t%d\t%d\n",
			r.Name, r.P, r.WrapPartners, r.BlockPartners, r.WrapMaxTraffic, r.BlockMaxTraffic,
			r.WrapHops, r.BlockHops)
	}
	w.Flush()
	return sb.String()
}

// GrainRow is one point of the grain-size ablation (extension Ext-C).
type GrainRow struct {
	Grain int
	Units int
	Total int64
	A     float64
}

// GrainSweep traces the communication / load-balance trade-off curve
// underlying Tables 2-3, for one matrix and processor count.
func GrainSweep(p *Problem, procs int, grains []int) []GrainRow {
	mustProcs(procs)
	var rows []GrainRow
	for _, g := range grains {
		s, r := p.Block(g, DefaultWidth, procs)
		rows = append(rows, GrainRow{
			Grain: g, Units: len(p.Part(g, DefaultWidth).Units),
			Total: r.Total, A: s.Imbalance(),
		})
	}
	return rows
}

// FormatGrainSweep renders the ablation curve.
func FormatGrainSweep(name string, procs int, rows []GrainRow) string {
	mustProcs(procs)
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ext-C: Grain sweep, %s, P=%d (communication vs load balance)\n", name, procs)
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Grain\tUnits\tTotal traffic\tA")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%.2f\n", r.Grain, r.Units, r.Total, r.A)
	}
	w.Flush()
	return sb.String()
}
