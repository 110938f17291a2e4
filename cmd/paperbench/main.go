// Command paperbench regenerates every table of Venugopal & Naik (SC'91)
// from the reproduction pipeline and prints measured values next to the
// published ones. It is also the bench-ledger and trace emitter: -ledger
// records every registered strategy (1D and native 2D) as machine-readable
// BENCH_*.json, and -trace exports one simulated execution as a Chrome
// trace (Perfetto-loadable) or an ASCII Gantt chart.
//
// With -measure it additionally runs the real parallel 2D engine
// (bit-identity verified against the serial factor) and prints measured
// wall-clock speedups next to the comm-aware predictions; the rows join
// the ledger as kind "measure". With -calibrate it fits {Alpha, Beta,
// Gamma} and the nanosecond scale to the measured per-task durations and
// prints the Ext-Cal table (measured vs uncalibrated vs calibrated
// prediction with MAPE columns); the rows join the ledger as kind
// "calibrate". Both flags together share one measurement pass.
//
// The command computes nothing itself: internal/tables holds every study
// and its renderers, and this file is flag parsing plus the -table
// registry that names a (study, text renderer) pair per table.
//
// Usage:
//
//	paperbench [-table 1|2|3|4|5|...|all|none]
//	paperbench -table none -ledger BENCH_pr.json -matrix LAP30
//	paperbench -table none -measure -repeats 2 -matrix LAP30 -ledger BENCH_measure.json
//	paperbench -table none -calibrate -repeats 2 -matrix LAP30 -ledger BENCH_calib.json
//	paperbench -table none -trace trace.json -tracestrategy rect2dcyclic -traceprocs 64
//	paperbench -checkledger BENCH_pr.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"slices"
	"strings"

	"repro"
	"repro/internal/tables"
)

// suite is what a table is rendered from: the five problems of Table 1,
// LAP30 among them (the single-matrix studies' subject), and the comm
// model of the -alpha/-beta flags.
type suite struct {
	ps  []*tables.Problem
	lap *tables.Problem
	cm  repro.CommModel
}

// tableEntry renders one study of internal/tables as text.
type tableEntry struct {
	name string
	text func(s suite) (string, error)
}

// registry is the -table axis in print order; it is also what validates
// -table.
var registry = []tableEntry{
	{"1", func(s suite) (string, error) { return tables.FormatTable1(tables.Table1(s.ps)), nil }},
	{"2", func(s suite) (string, error) { return show(tables.FormatTable2)(tables.Tables2and3(s.ps)) }},
	{"3", func(s suite) (string, error) { return show(tables.FormatTable3)(tables.Tables2and3(s.ps)) }},
	{"4", func(s suite) (string, error) { return show(tables.FormatTable4)(tables.Table4(s.lap)) }},
	{"5", func(s suite) (string, error) { return show(tables.FormatTable5)(tables.Table5(s.ps)) }},
	{"makespan", func(s suite) (string, error) { return show(tables.FormatMakespan)(tables.Makespan(s.ps)) }},
	{"partners", func(s suite) (string, error) { return show(tables.FormatPartners)(tables.Partners(s.ps)) }},
	{"grain", func(s suite) (string, error) {
		rows, err := tables.BlockSweep(s.lap, 16, []int{2, 4, 8, 16, 25, 50, 100, 200}, []int{tables.DefaultWidth})
		return tables.FormatGrainSweep("LAP30", 16, rows), err
	}},
	{"relax", func(s suite) (string, error) {
		rows, err := tables.RelaxSweep(s.lap, 16, 25, []float64{0, 0.05, 0.1, 0.25, 0.5})
		return tables.FormatRelaxSweep("LAP30", 16, 25, rows), err
	}},
	{"alloc", func(s suite) (string, error) { return show(tables.FormatAllocCompare)(tables.AllocCompare(s.ps)) }},
	{"order", func(s suite) (string, error) {
		rows, err := tables.OrderCompare(s.lap, 16)
		return tables.FormatOrderCompare("LAP30", 16, rows), err
	}},
	{"solve", func(s suite) (string, error) { return show(tables.FormatSolveBalance)(tables.SolveBalance(s.ps)) }},
	{"dynamic", func(s suite) (string, error) { return show(tables.FormatDynamicCompare)(tables.DynamicCompare(s.ps)) }},
	{"messages", func(s suite) (string, error) { return show(tables.FormatMessages)(tables.Messages(s.ps)) }},
	{"commspan", func(s suite) (string, error) {
		rows, err := tables.CommMakespan(s.lap, 16, []float64{0, 1, 2, 5, 10, 20})
		return tables.FormatCommMakespan("LAP30", 16, rows), err
	}},
	{"unified", func(s suite) (string, error) {
		rows, err := tables.UnifiedComm(s.lap, tables.WrapProcs, nil, tables.Production, s.cm)
		return tables.FormatUnifiedComm("LAP30", s.cm, rows), err
	}},
	{"strategy", func(s suite) (string, error) {
		rows, err := tables.StrategyCompare(s.ps, tables.DefaultProcs, nil, tables.Production)
		return tables.FormatStrategyCompare(rows), err
	}},
	{"tile2d", func(s suite) (string, error) {
		rows, err := tables.Tile2D(s.lap, tables.Tile2DProcs, nil, repro.StrategyOptions{}, s.cm)
		return tables.FormatTile2D("LAP30", s.cm, rows), err
	}},
	{"crossover", func(s suite) (string, error) {
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
		"which table to regenerate: 1..5, makespan, partners, grain, relax, alloc, order, solve, dynamic, crossover, messages, commspan, unified, strategy, tile2d, all, or none (tables off; useful with -ledger/-trace)")
	alpha := fs.Float64("alpha", 2, "comm model: work units per fetched element (unified table, ledger, trace)")
	beta := fs.Float64("beta", 10, "comm model: work units per received message (unified table, ledger, trace)")
	ledgerPath := fs.String("ledger", "", "write the machine-readable bench ledger (BENCH_*.json) to this path")
	checkLedger := fs.String("checkledger", "", "validate an existing bench ledger file and exit (the CI gate)")
	matrix := fs.String("matrix", "", "restrict -ledger to one suite matrix and select the -trace matrix (default: all for the ledger, LAP30 for the trace)")
	tracePath := fs.String("trace", "", "write one traced comm-aware dynamic simulation to this path")
	traceFormat := fs.String("traceformat", "chrome", "trace export format: "+strings.Join(repro.TraceFormats(), " or "))
	traceStrategy := fs.String("tracestrategy", "wrap", "strategy of the traced run: a 1D strategy, a native 2D mapper, or col2d:<base>")
	traceProcs := fs.Int("traceprocs", 16, "processor count of the traced run")
	measure := fs.Bool("measure", false, "run the real parallel engine on every 2D strategy (-matrix or LAP30) and print measured vs predicted speedups; with -ledger the rows join the ledger as kind \"measure\"")
	calibrate := fs.Bool("calibrate", false, "measure every 2D strategy (-matrix or LAP30), fit the cost model to the per-task durations, and print the Ext-Cal calibration table; with -ledger the rows join the ledger as kind \"calibrate\"")
	repeats := fs.Int("repeats", 3, "repeat-and-min count for -measure and -calibrate timings")
	fs.Parse(args)
	// !(x >= 0) also rejects NaN, which a plain x < 0 lets through.
	if !(*alpha >= 0) || !(*beta >= 0) || math.IsInf(*alpha, 0) || math.IsInf(*beta, 0) {
		return fmt.Errorf("invalid comm model: alpha=%g beta=%g (both must be finite and >= 0)", *alpha, *beta)
	}
	cm := repro.CommModel{Alpha: *alpha, Beta: *beta}
	if err := validateRepeats(*repeats); err != nil {
		return err
	}

	if *checkLedger != "" {
		data, err := os.ReadFile(*checkLedger)
		if err != nil {
			return err
		}
		if err := repro.ValidateLedger(data); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: valid %s ledger\n", *checkLedger, repro.BenchLedgerSchema)
		return nil
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
	s := suite{ps: ps, lap: byName("LAP30"), cm: cm}
	for _, e := range registry {
		if *table != "all" && *table != e.name {
			continue
		}
		text, err := e.text(s)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, text)
	}

	// -measure and -calibrate share one pass over the engine grid, so the
	// measure and calibrate rows of one run describe the same executions.
	mp := byName(focus)
	var measured []tables.MeasureRow
	var calStudy *tables.CalibrationStudy
	if *measure || *calibrate {
		runs, err := tables.Measured(mp, tables.MeasureProcs, nil, cm, *repeats)
		if err != nil {
			return err
		}
		if *measure {
			measured = runs
			fmt.Fprintln(stdout, tables.FormatMeasured(mp.Meta.Name, cm, measured))
		}
		if *calibrate {
			if calStudy, err = tables.Calibration(runs); err != nil {
				return err
			}
			fmt.Fprintln(stdout, tables.FormatCalibration(mp.Meta.Name, cm, calStudy))
		}
	}

	if f := files["-ledger"]; f != nil {
		bench := ps
		if *matrix != "" {
			bench = []*tables.Problem{mp}
		}
		ledger, err := tables.BenchLedger(bench, tables.DefaultProcs, cm)
		if err != nil {
			return err
		}
		ledger.Records = append(ledger.Records, tables.MeasureRecords(measured, cm)...)
		ledger.Records = append(ledger.Records, tables.CalibrationRecords(calStudy)...)
		// One staged-pipeline row per benched matrix: a cold request
		// against an empty artifact store vs repeated warm requests, with
		// the cache hit/miss counters (gated by -checkledger).
		for _, p := range bench {
			rec, err := tables.PipelineRecord(p, "wrap", 4, 5)
			if err != nil {
				return err
			}
			ledger.Add(rec)
		}
		if err := ledger.Write(f); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s (%d records)\n", *ledgerPath, len(ledger.Records))
	}
	if f := files["-trace"]; f != nil {
		c, err := mp.Cell(*traceStrategy, *traceProcs, tables.Production)
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
// fails before any table work, even when -measure/-calibrate are off.
func validateRepeats(r int) error {
	if r < 1 {
		return fmt.Errorf("invalid -repeats %d (want >= 1)", r)
	}
	return nil
}
