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
// "calibrate".
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
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"slices"
	"strings"

	"repro"
	"repro/internal/exec"
	"repro/internal/tables"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")
	table := flag.String("table", "all",
		"which table to regenerate: 1..5, makespan, partners, grain, relax, alloc, order, solve, dynamic, crossover, messages, commspan, unified, strategy, tile2d, all, or none (tables off; useful with -ledger/-trace)")
	alpha := flag.Float64("alpha", 2, "comm model: work units per fetched element (unified table, ledger, trace)")
	beta := flag.Float64("beta", 10, "comm model: work units per received message (unified table, ledger, trace)")
	ledgerPath := flag.String("ledger", "", "write the machine-readable bench ledger (BENCH_*.json) to this path")
	checkLedger := flag.String("checkledger", "", "validate an existing bench ledger file and exit (the CI gate)")
	matrix := flag.String("matrix", "", "restrict -ledger to one suite matrix and select the -trace matrix (default: all for the ledger, LAP30 for the trace)")
	tracePath := flag.String("trace", "", "write one traced comm-aware dynamic simulation to this path")
	traceFormat := flag.String("traceformat", "chrome", "trace export format: "+strings.Join(repro.TraceFormats(), " or "))
	traceStrategy := flag.String("tracestrategy", "wrap", "strategy of the traced run: a 1D strategy, a native 2D mapper, or col2d:<base>")
	traceProcs := flag.Int("traceprocs", 16, "processor count of the traced run")
	measure := flag.Bool("measure", false, "run the real parallel engine on every 2D strategy (-matrix or LAP30) and print measured vs predicted speedups; with -ledger the rows join the ledger as kind \"measure\"")
	calibrate := flag.Bool("calibrate", false, "measure every 2D strategy (-matrix or LAP30), fit the cost model to the per-task durations, and print the Ext-Cal calibration table; with -ledger the rows join the ledger as kind \"calibrate\"")
	repeats := flag.Int("repeats", 3, "repeat-and-min count for -measure and -calibrate timings")
	flag.Parse()
	// !(x >= 0) also rejects NaN, which a plain x < 0 lets through.
	if !(*alpha >= 0) || !(*beta >= 0) || math.IsInf(*alpha, 0) || math.IsInf(*beta, 0) {
		log.Fatalf("invalid comm model: alpha=%g beta=%g (both must be finite and >= 0)", *alpha, *beta)
	}
	cm := exec.CommModel{Alpha: *alpha, Beta: *beta}
	if err := validateRepeats(*repeats); err != nil {
		log.Fatal(err)
	}

	if *checkLedger != "" {
		data, err := os.ReadFile(*checkLedger)
		if err != nil {
			log.Fatal(err)
		}
		if err := repro.ValidateLedger(data); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: valid %s ledger\n", *checkLedger, repro.BenchLedgerSchema)
		return
	}

	// Fail fast on every output knob before any table work: unknown trace
	// formats and strategies are refused up front, and output files are
	// created now so a bad path can't die after minutes of simulation.
	var ledgerFile, traceFile *os.File
	if *ledgerPath != "" {
		f, err := os.Create(*ledgerPath)
		if err != nil {
			log.Fatalf("-ledger: %v", err)
		}
		ledgerFile = f
	}
	if *tracePath != "" {
		if !slices.Contains(repro.TraceFormats(), *traceFormat) {
			log.Fatalf("unknown trace format %q (supported: %s)", *traceFormat, strings.Join(repro.TraceFormats(), ", "))
		}
		if !validTraceStrategy(*traceStrategy) {
			log.Fatalf("unknown trace strategy %q (want a 1D strategy [%s], a 2D mapper [%s], or col2d:<base>)",
				*traceStrategy, strings.Join(repro.Strategies(), ", "), strings.Join(repro.Strategies2D(), ", "))
		}
		if *traceProcs < 1 {
			log.Fatalf("invalid -traceprocs %d", *traceProcs)
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatalf("-trace: %v", err)
		}
		traceFile = f
	}

	ps, err := tables.LoadSuite()
	if err != nil {
		log.Fatal(err)
	}
	var lap *tables.Problem
	for _, p := range ps {
		if p.Meta.Name == "LAP30" {
			lap = p
		}
	}
	if *matrix != "" {
		if !slices.ContainsFunc(ps, func(p *tables.Problem) bool { return p.Meta.Name == *matrix }) {
			log.Fatalf("unknown matrix %q", *matrix)
		}
	}

	show := func(name string) bool { return *table == "all" || *table == name }
	printed := *table == "none"
	if show("1") {
		fmt.Println(tables.FormatTable1(tables.Table1(ps)))
		printed = true
	}
	if show("2") {
		fmt.Println(tables.FormatTable2(tables.Table2(ps)))
		printed = true
	}
	if show("3") {
		fmt.Println(tables.FormatTable3(tables.Table3(ps)))
		printed = true
	}
	if show("4") {
		fmt.Println(tables.FormatTable4(tables.Table4(lap)))
		printed = true
	}
	if show("5") {
		fmt.Println(tables.FormatTable5(tables.Table5(ps)))
		printed = true
	}
	if show("makespan") {
		fmt.Println(tables.FormatMakespan(tables.Makespan(ps)))
		printed = true
	}
	if show("partners") {
		fmt.Println(tables.FormatPartners(tables.Partners(ps)))
		printed = true
	}
	if show("grain") {
		rows := tables.GrainSweep(lap, 16, []int{2, 4, 8, 16, 25, 50, 100, 200})
		fmt.Println(tables.FormatGrainSweep("LAP30", 16, rows))
		printed = true
	}
	if show("relax") {
		rows, err := tables.RelaxSweep(lap.Meta, 16, 25, []float64{0, 0.05, 0.1, 0.25, 0.5})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tables.FormatRelaxSweep("LAP30", 16, 25, rows))
		printed = true
	}
	if show("alloc") {
		fmt.Println(tables.FormatAllocCompare(tables.AllocCompare(ps)))
		printed = true
	}
	if show("order") {
		rows, err := tables.OrderCompare(lap.Meta, 16)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tables.FormatOrderCompare("LAP30", 16, rows))
		printed = true
	}
	if show("solve") {
		fmt.Println(tables.FormatSolveBalance(tables.SolveBalance(ps)))
		printed = true
	}
	if show("dynamic") {
		fmt.Println(tables.FormatDynamicCompare(tables.DynamicCompare(ps)))
		printed = true
	}
	if show("messages") {
		fmt.Println(tables.FormatMessages(tables.Messages(ps)))
		printed = true
	}
	if show("commspan") {
		rows := tables.CommMakespan(lap, 16, []float64{0, 1, 2, 5, 10, 20})
		fmt.Println(tables.FormatCommMakespan("LAP30", 16, rows))
		printed = true
	}
	if show("unified") {
		rows, err := tables.UnifiedComm(lap, tables.WrapProcs, nil, cm)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tables.FormatUnifiedComm("LAP30", cm, rows))
		printed = true
	}
	if show("strategy") {
		rows, err := tables.StrategyCompare(ps, tables.DefaultProcs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tables.FormatStrategyCompare(rows))
		printed = true
	}
	if show("tile2d") {
		rows, err := tables.Tile2D(lap, tables.Tile2DProcs, cm)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tables.FormatTile2D("LAP30", cm, rows))
		printed = true
	}
	if show("crossover") {
		costs := []float64{0, 0.5, 1, 2, 5, 10, 20, 50}
		rows := tables.Crossover(lap, 16, costs)
		fmt.Println(tables.FormatCrossover("LAP30", 16, rows, tables.CrossoverPoint(lap, 16)))
		for _, p := range ps {
			fmt.Printf("%-10s P=16 crossover c = %.2f\n", p.Meta.Name, tables.CrossoverPoint(p, 16))
		}
		fmt.Println()
		printed = true
	}
	if !printed {
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		flag.Usage()
		os.Exit(2)
	}

	mp := lap
	if *matrix != "" {
		for _, p := range ps {
			if p.Meta.Name == *matrix {
				mp = p
			}
		}
	}
	var measured []tables.MeasureRow
	if *measure {
		rows, err := tables.Measured(mp, tables.MeasureProcs, cm, *repeats)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tables.FormatMeasured(mp.Meta.Name, cm, rows))
		measured = rows
	}
	var calStudy *tables.CalibrationStudy
	if *calibrate {
		st, err := tables.Calibration(mp, tables.MeasureProcs, cm, *repeats)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tables.FormatCalibration(mp.Meta.Name, cm, st))
		calStudy = st
	}

	if ledgerFile != nil {
		bench := ps
		if *matrix != "" {
			bench = nil
			for _, p := range ps {
				if p.Meta.Name == *matrix {
					bench = append(bench, p)
				}
			}
		}
		ledger, err := tables.BenchLedger(bench, tables.DefaultProcs, cm)
		if err != nil {
			log.Fatal(err)
		}
		for _, rec := range tables.MeasureRecords(measured, cm) {
			ledger.Add(rec)
		}
		for _, rec := range tables.CalibrationRecords(calStudy) {
			ledger.Add(rec)
		}
		// One staged-pipeline row per benched matrix: a cold request
		// against an empty artifact store vs repeated warm requests, with
		// the cache hit/miss counters (gated by -checkledger).
		for _, p := range bench {
			rec, err := tables.PipelineRecord(p, "wrap", 4, 5)
			if err != nil {
				log.Fatal(err)
			}
			ledger.Add(rec)
		}
		if err := ledger.Write(ledgerFile); err != nil {
			log.Fatal(err)
		}
		if err := ledgerFile.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d records)\n", *ledgerPath, len(ledger.Records))
	}
	if traceFile != nil {
		name := *matrix
		if name == "" {
			name = "LAP30"
		}
		if err := writeTraceRun(traceFile, name, *traceStrategy, *traceProcs, *traceFormat, cm); err != nil {
			log.Fatal(err)
		}
		if err := traceFile.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *tracePath)
	}
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

// validTraceStrategy accepts any registered 1D strategy, any native 2D
// mapper, or a "col2d:<base>" lift of a column-granular strategy.
func validTraceStrategy(name string) bool {
	if base, ok := strings.CutPrefix(name, "col2d:"); ok {
		return slices.Contains(repro.LiftBases2D(), base)
	}
	return slices.Contains(repro.Strategies(), name) || slices.Contains(repro.Strategies2D(), name)
}

// writeTraceRun maps the named strategy on the named suite matrix, runs
// the comm-aware dynamic makespan simulation with tracing, and exports
// the events in the requested format.
func writeTraceRun(w *os.File, matrix, name string, procs int, format string, cm exec.CommModel) error {
	m, _, err := repro.BuildMatrix(matrix)
	if err != nil {
		return err
	}
	an, err := repro.AnalyzePattern(m)
	if err != nil {
		return err
	}
	var pl *repro.Plan
	switch {
	case strings.HasPrefix(name, "col2d:"):
		pl, err = an.Plan2D("col2d", procs, repro.StrategyOptions{Base: strings.TrimPrefix(name, "col2d:")})
	case slices.Contains(repro.Strategies2D(), name):
		pl, err = an.Plan2D(name, procs, repro.StrategyOptions{})
	default:
		pl, err = an.Plan(name, procs, repro.StrategyOptions{
			Part: repro.PartitionOptions{Grain: 25, MinClusterWidth: 4},
		})
	}
	if err != nil {
		return err
	}
	tr := repro.NewTracer()
	res := pl.Simulate(repro.SimOptions{Dynamic: true, Comm: cm, Probe: tr})
	return repro.WriteTrace(w, format, tr.Events, res)
}
