// Command paperbench regenerates every table of Venugopal & Naik (SC'91)
// from the reproduction pipeline and prints measured values next to the
// published ones. It is also the bench-ledger and trace emitter: -ledger
// records every registered strategy (1D and native 2D) as machine-readable
// BENCH_*.json, and -trace exports one simulated execution as a Chrome
// trace (Perfetto-loadable) or an ASCII Gantt chart.
//
// One table times real runs and therefore stays out of -table all: measure
// runs the parallel 2D engine (bit-identity verified against the serial
// factor), fits {Alpha, Beta, Gamma} and the nanosecond scale to the
// measured per-task durations, and prints each measured wall-clock
// speedup next to the comm-aware prediction, uncalibrated and calibrated,
// with their MAPEs. Its numbers are one machine's and never enter the
// ledger, which holds only what cmd/ledgerdiff gates exactly.
//
// The command computes nothing itself: internal/tables holds every study
// and its renderers, and this file is flag parsing plus the -table
// registry that names a (study, text renderer) pair per table.
//
// Usage:
//
//	paperbench [-table 1|2|3|4|5|...|all|none]
//	paperbench -table none -ledger BENCH_pr.json -matrix LAP30
//	paperbench -table measure -repeats 2 -matrix LAP30
//	paperbench -table none -trace trace.json -tracestrategy rect2dcyclic -traceprocs 64
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"repro"
	"repro/internal/tables"
)

// suite is what a table is rendered from: the five problems of Table 1,
// LAP30 among them (the single-matrix studies' subject), the comm model
// of the -alpha/-beta flags, and for the timed table the -matrix problem
// and the -repeats count.
type suite struct {
	ps    []*tables.Problem
	lap   *tables.Problem
	cm    repro.CommModel
	focus *tables.Problem
	reps  int
}

// tableEntry renders one study of internal/tables as text. The timed
// table runs the real engine: -table all leaves it out, as cmd/sweep's
// -kind all leaves out its measured kind.
type tableEntry struct {
	name  string
	timed bool
	text  func(s suite) (string, error)
}

// registry is the -table axis in print order; it is also what validates
// -table.
var registry = []tableEntry{
	{name: "1", text: func(s suite) (string, error) { return tables.FormatTable1(tables.Table1(s.ps)), nil }},
	{name: "2", text: func(s suite) (string, error) { return show(tables.FormatTable2)(tables.Tables2and3(s.ps)) }},
	{name: "3", text: func(s suite) (string, error) { return show(tables.FormatTable3)(tables.Tables2and3(s.ps)) }},
	{name: "4", text: func(s suite) (string, error) { return show(tables.FormatTable4)(tables.Table4(s.lap)) }},
	{name: "5", text: func(s suite) (string, error) { return show(tables.FormatTable5)(tables.Table5(s.ps)) }},
	{name: "makespan", text: func(s suite) (string, error) { return show(tables.FormatMakespan)(tables.Makespan(s.ps)) }},
	{name: "partners", text: func(s suite) (string, error) { return show(tables.FormatPartners)(tables.Partners(s.ps)) }},
	{name: "grain", text: func(s suite) (string, error) {
		rows, err := tables.BlockSweep(s.lap, 16, []int{2, 4, 8, 16, 25, 50, 100, 200}, []int{tables.DefaultWidth})
		return tables.FormatGrainSweep("LAP30", 16, rows), err
	}},
	{name: "dynamic", text: func(s suite) (string, error) { return show(tables.FormatDynamicCompare)(tables.DynamicCompare(s.ps)) }},
	{name: "unified", text: func(s suite) (string, error) {
		rows, err := tables.UnifiedComm(s.lap, tables.WrapProcs, nil, tables.Production, s.cm)
		return tables.FormatUnifiedComm("LAP30", s.cm, rows), err
	}},
	{name: "strategy", text: func(s suite) (string, error) {
		rows, err := tables.StrategyCompare(s.ps, tables.DefaultProcs, nil, tables.Production)
		return tables.FormatStrategyCompare(rows), err
	}},
	{name: "tile2d", text: func(s suite) (string, error) {
		rows, err := tables.Tile2D(s.lap, tables.Tile2DProcs, nil, repro.StrategyOptions{}, s.cm)
		return tables.FormatTile2D("LAP30", s.cm, rows), err
	}},
	{name: "crossover", text: func(s suite) (string, error) {
		rows, point, err := tables.Crossover(s.lap, 16, []float64{0, 0.5, 1, 2, 5, 10, 20, 50})
		out := tables.FormatCrossover("LAP30", 16, rows, point) + "\n"
		for _, p := range s.ps {
			if _, point, err = tables.Crossover(p, 16, nil); err != nil {
				break
			}
			out += fmt.Sprintf("%-10s P=16 crossover c = %.2f\n", p.Meta.Name, point)
		}
		return out, err
	}},
	{name: "measure", timed: true, text: func(s suite) (string, error) {
		st, err := tables.Measured(s.focus, tables.MeasureProcs, nil, s.cm, s.reps)
		if err != nil {
			return "", err
		}
		return tables.FormatMeasured(s.focus.Meta.Name, s.cm, st), nil
	}},
}

// show adapts a text renderer to a study's (rows, error) result.
func show[R any](format func(R) string) func(R, error) (string, error) {
	return func(rows R, err error) (string, error) { return format(rows), err }
}

// errUsage reports a rejected -table: run has already printed the message
// and the usage text, and main exits 2 like a flag-parse failure.
var errUsage = errors.New("usage")

// loadSuite is the suite loader; the fail-fast tests replace it to prove a
// rejected flag never reaches it.
var loadSuite = tables.LoadSuite

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); errors.Is(err, errUsage) {
		os.Exit(2)
	} else if err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all",
		"which table to regenerate: 1..5, makespan, partners, grain, dynamic, crossover, unified, strategy, tile2d, all, none (tables off; useful with -ledger/-trace), or the timed table measure (real engine runs on -matrix, not part of all)")
	alpha := fs.Float64("alpha", 2, "comm model: work units per fetched element (unified table, ledger, trace)")
	beta := fs.Float64("beta", 10, "comm model: work units per received message (unified table, ledger, trace)")
	ledgerPath := fs.String("ledger", "", "write the machine-readable bench ledger (BENCH_*.json) to this path")
	matrix := fs.String("matrix", "", "restrict -ledger to one suite matrix and select the matrix of -trace and the timed table (default: all for the ledger, LAP30 otherwise)")
	tracePath := fs.String("trace", "", "write one traced comm-aware dynamic simulation to this path")
	traceFormat := fs.String("traceformat", "chrome", "trace export format: "+strings.Join(repro.TraceFormats(), " or "))
	traceStrategy := fs.String("tracestrategy", "wrap", "strategy of the traced run: a 1D strategy, a native 2D mapper, or col2d:<base>")
	traceProcs := fs.Int("traceprocs", 16, "processor count of the traced run")
	repeats := fs.Int("repeats", 3, "repeat-and-min count for the timings of -table measure")
	fs.Parse(args)
	cm := repro.CommModel{Alpha: *alpha, Beta: *beta}
	if err := cm.Valid(); err != nil {
		return fmt.Errorf("-alpha/-beta: %w", err)
	}
	if err := validateRepeats(*repeats); err != nil {
		return err
	}

	// Fail fast on every knob before any matrix is built: -table, -matrix,
	// trace formats and strategies are checked against their registries up
	// front, and output files are created now so a bad path can't die after
	// minutes of simulation.
	if *table != "all" && *table != "none" &&
		!slices.ContainsFunc(registry, func(e tableEntry) bool { return e.name == *table }) {
		fmt.Fprintf(stderr, "unknown table %q\n", *table)
		fs.Usage()
		return errUsage
	}
	focus := "LAP30"
	if *matrix != "" {
		if !slices.ContainsFunc(repro.TestMatrices(), func(tm repro.TestMatrix) bool { return tm.Name == *matrix }) {
			return fmt.Errorf("unknown matrix %q", *matrix)
		}
		focus = *matrix
	}
	if *tracePath != "" {
		if !slices.Contains(repro.TraceFormats(), *traceFormat) {
			return fmt.Errorf("unknown trace format %q (supported: %s)", *traceFormat, strings.Join(repro.TraceFormats(), ", "))
		}
		if !tables.ValidLabel(*traceStrategy) {
			return fmt.Errorf("unknown trace strategy %q (want a 1D strategy [%s], a 2D mapper [%s], or col2d:<base>)",
				*traceStrategy, strings.Join(repro.Strategies(), ", "), strings.Join(repro.Strategies2D(), ", "))
		}
		if *traceProcs < 1 {
			return fmt.Errorf("invalid -traceprocs %d", *traceProcs)
		}
	}
	files := make(map[string]*os.File)
	for _, out := range []struct{ flag, path string }{{"-ledger", *ledgerPath}, {"-trace", *tracePath}} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return fmt.Errorf("%s: %v", out.flag, err)
		}
		defer f.Close()
		files[out.flag] = f
	}

	ps, err := loadSuite()
	if err != nil {
		return err
	}
	byName := func(name string) *tables.Problem {
		return ps[slices.IndexFunc(ps, func(p *tables.Problem) bool { return p.Meta.Name == name })]
	}
	s := suite{ps: ps, lap: byName("LAP30"), cm: cm, focus: byName(focus), reps: *repeats}
	for _, e := range registry {
		if *table != e.name && (*table != "all" || e.timed) {
			continue
		}
		text, err := e.text(s)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, text)
	}

	if f := files["-ledger"]; f != nil {
		bench := ps
		if *matrix != "" {
			bench = []*tables.Problem{s.focus}
		}
		ledger, err := tables.BenchLedger(bench, tables.DefaultProcs, cm)
		if err != nil {
			return err
		}
		if err := ledger.Write(f); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s (%d records)\n", *ledgerPath, len(ledger.Records))
	}
	if f := files["-trace"]; f != nil {
		c, err := s.focus.Cell(*traceStrategy, *traceProcs, tables.Production)
		if err != nil {
			return err
		}
		if err := c.WriteTrace(f, *traceFormat, cm); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *tracePath)
	}
	return nil
}

// validateRepeats rejects a repeat-and-min count the measurement harness
// cannot honour. Checked unconditionally at startup so a bad -repeats
// fails before any table work, even when no timed table is selected.
func validateRepeats(r int) error {
	if r < 1 {
		return fmt.Errorf("invalid -repeats %d (want >= 1)", r)
	}
	return nil
}
