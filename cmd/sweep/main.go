// Command sweep emits CSV data series for plotting: processor sweeps,
// grain sweeps, width sweeps and cross-strategy sweeps over any of the
// test matrices, with one row per configuration. It is the data generator
// behind the trade-off curves discussed in EXPERIMENTS.md.
//
// Usage:
//
//	sweep -kind procs    -matrix LAP30 > procs.csv
//	sweep -kind grain    -matrix LAP30 -procs 16 > grain.csv
//	sweep -kind width    -matrix LAP30 -procs 16 > width.csv
//	sweep -kind strategy -matrix LAP30 -procs 16 > strategy.csv
//	sweep -kind strategy -strategy contiguous -matrix LAP30 -procs 16
//	sweep -kind strategy -strategy refine -objective commspan -alpha 2 -beta 10
//	sweep -kind comm     -matrix LAP30 -alpha 2 -beta 10 > comm.csv
//	sweep -kind tile2d   -matrix LAP30 -alpha 2 -beta 10 > tile2d.csv
//	sweep -kind tile2d   -strategy col2d:rectilinear -matrix LAP30
//	sweep -kind measure  -matrix LAP30 -repeats 3 > measure.csv
//	sweep -kind calibrate -matrix LAP30 -repeats 3 > calibrate.csv
//	sweep -kind all      -out data/         # every series for every matrix
//	sweep -kind strategy -matrix LAP30 -ledger BENCH_lap30.json
//	sweep -kind tile2d   -strategy rect2dcyclic -procs 64 -trace trace.json
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro"
)

var (
	procsSweep   = []int{1, 2, 4, 8, 16, 32, 64}
	grainSweep   = []int{2, 4, 8, 16, 25, 50, 100, 200}
	widthSweep   = []int{2, 3, 4, 6, 8, 12, 16}
	measureSweep = []int{1, 4, 16, 64}
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	var (
		kind   = flag.String("kind", "procs", "series: procs, grain, width, strategy, comm, tile2d, measure, calibrate, or all")
		matrix = flag.String("matrix", "LAP30", "test matrix name")
		procs  = flag.Int("procs", 16, "processors (grain, width and strategy sweeps)")
		grain  = flag.Int("grain", 25, "grain size (procs, width and strategy sweeps)")
		strat  = flag.String("strategy", "", "restrict the strategy sweep to one registered strategy (default all: "+strings.Join(repro.Strategies(), ", ")+")")
		obj    = flag.String("objective", "", "refine objective for the refine strategy (one of: "+strings.Join(repro.RefineObjectives(), ", ")+"; default imbalance)")
		out    = flag.String("out", "", "output directory for -kind all (default stdout for single series)")
		alpha  = flag.Float64("alpha", 2, "comm model: work units per fetched element (comm sweep, commspan objective)")
		beta   = flag.Float64("beta", 10, "comm model: work units per received message (comm sweep, commspan objective)")
		beta2  = flag.Float64("beta2", 0, "contigtotal objective: weight of per-cut message counts next to volume")
		trace  = flag.String("trace", "", "write the traced comm-aware dynamic run of the single -strategy at -procs to this path (kinds strategy, comm, tile2d)")
		tracef = flag.String("traceformat", "chrome", "trace export format: "+strings.Join(repro.TraceFormats(), " or "))
		ledger = flag.String("ledger", "", "write one BENCH record per sweep row to this path (kinds strategy, comm, tile2d)")
		reps   = flag.Int("repeats", 3, "repeat-and-min count for the measure sweep's wall-clock timings")
	)
	flag.Parse()
	// !(x >= 0) also rejects NaN, which a plain x < 0 lets through.
	if !(*alpha >= 0) || !(*beta >= 0) || math.IsInf(*alpha, 0) || math.IsInf(*beta, 0) {
		log.Fatalf("invalid comm model: alpha=%g beta=%g (both must be finite and >= 0)", *alpha, *beta)
	}
	if !(*beta2 >= 0) || math.IsInf(*beta2, 0) {
		log.Fatalf("invalid -beta2 %g (must be finite and >= 0)", *beta2)
	}
	if *kind == "tile2d" || *kind == "measure" || *kind == "calibrate" {
		validateChoice("2D strategy", *strat, tile2dChoices(""))
	} else {
		validateChoice("strategy", *strat, repro.Strategies())
	}
	if err := validateRepeats(*kind, *reps); err != nil {
		log.Fatal(err)
	}
	validateChoice("refine objective", *obj, repro.RefineObjectives())
	cm := repro.CommModel{Alpha: *alpha, Beta: *beta}

	// The observability outputs fail fast, before any sweep work: trace
	// format and kind compatibility are checked and the files created up
	// front, so a typo can't surface after a long simulation.
	benchKinds := []string{"strategy", "comm", "tile2d"}
	bcap := &capture{traceFormat: *tracef, traceProcs: *procs, traceStrategy: *strat}
	if *trace != "" {
		validateChoice("trace format", *tracef, repro.TraceFormats())
		if !slices.Contains(benchKinds, *kind) {
			log.Fatalf("-trace requires -kind %s (got %q)", strings.Join(benchKinds, ", "), *kind)
		}
		if *strat == "" {
			log.Fatal("-trace requires a single -strategy to capture")
		}
		f, err := os.Create(*trace)
		if err != nil {
			log.Fatalf("-trace: %v", err)
		}
		defer f.Close()
		bcap.traceW = f
	}
	if *ledger != "" {
		if !slices.Contains(benchKinds, *kind) {
			log.Fatalf("-ledger requires -kind %s (got %q)", strings.Join(benchKinds, ", "), *kind)
		}
		f, err := os.Create(*ledger)
		if err != nil {
			log.Fatalf("-ledger: %v", err)
		}
		defer f.Close()
		bcap.ledgerW = f
		bcap.ledger = repro.NewLedger()
	}

	if *kind == "all" {
		if *out == "" {
			log.Fatal("-kind all requires -out")
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, tm := range repro.TestMatrices() {
			for _, k := range []string{"procs", "grain", "width", "strategy", "comm", "tile2d"} {
				path := filepath.Join(*out, strings.ToLower(tm.Name)+"_"+k+".csv")
				f, err := os.Create(path)
				if err != nil {
					log.Fatal(err)
				}
				if err := writeSeries(f, k, tm.Name, *procs, *grain, *strat, *obj, cm, *beta2, *reps, nil); err != nil {
					log.Fatal(err)
				}
				if err := f.Close(); err != nil {
					log.Fatal(err)
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
		}
		return
	}
	if err := writeSeries(os.Stdout, *kind, *matrix, *procs, *grain, *strat, *obj, cm, *beta2, *reps, bcap); err != nil {
		log.Fatal(err)
	}
	if bcap.ledger != nil {
		if err := bcap.ledger.Write(bcap.ledgerW); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d records)\n", *ledger, len(bcap.ledger.Records))
	}
	if bcap.traceW != nil {
		if !bcap.traced {
			log.Fatalf("-trace: strategy %q at -procs %d never ran in the %s sweep", *strat, *procs, *kind)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *trace)
	}
}

// capture carries the observability outputs of one sweep: the ledger
// accumulating one BENCH record per row, and the trace writer capturing
// the single (traceStrategy, traceProcs) run.
type capture struct {
	ledger        *repro.Ledger
	ledgerW       io.Writer
	traceW        io.Writer
	traceFormat   string
	traceStrategy string
	traceProcs    int
	traced        bool
}

// observe runs the traced comm-aware dynamic simulation of pl when the
// capture needs it: always for a ledger record (when the ledger is on),
// and for the trace export when (name, pl.P) is the selected trace point.
// matrix/kind2/name label the record.
func (c *capture) observe(matrix, kind2, name string, pl *repro.Plan, cm repro.CommModel) error {
	if c == nil {
		return nil
	}
	tracePoint := c.traceW != nil && !c.traced && name == c.traceStrategy && pl.P == c.traceProcs
	if c.ledger == nil && !tracePoint {
		return nil
	}
	tr := repro.NewTracer()
	res := pl.Simulate(repro.SimOptions{Dynamic: true, Comm: cm, Probe: tr})
	if c.ledger != nil {
		prof, err := repro.BuildProfile(tr.Events, res)
		if err != nil {
			return err
		}
		sum := prof.Summary()
		c.ledger.Add(repro.BenchRecord{
			Matrix: matrix, Strategy: name, Kind: kind2, P: pl.P,
			Alpha: cm.Alpha, Beta: cm.Beta,
			Makespan: res.Makespan, Traffic: pl.TrafficTotal(), Efficiency: res.Efficiency,
			Profile: &sum,
		})
	}
	if tracePoint {
		if err := repro.WriteTrace(c.traceW, c.traceFormat, tr.Events, res); err != nil {
			return err
		}
		c.traced = true
	}
	return nil
}

// validateRepeats rejects a repeat-and-min count the measurement kinds
// cannot honour, before any sweep work starts. Kinds that never time a
// real run ignore -repeats and accept anything.
func validateRepeats(kind string, reps int) error {
	if (kind == "measure" || kind == "calibrate") && reps < 1 {
		return fmt.Errorf("invalid -repeats %d for -kind %s (want >= 1)", reps, kind)
	}
	return nil
}

// validateChoice fails fast (before any sweep work) when a flag value is
// set but not among the registered choices, listing them — so an unknown
// -strategy or -objective can't die mid-sweep after emitting partial CSV.
func validateChoice(name, value string, choices []string) {
	if value == "" || slices.Contains(choices, value) {
		return
	}
	log.Fatalf("unknown %s %q (registered: %s)", name, value, strings.Join(choices, ", "))
}

func writeSeries(out io.Writer, kind, matrix string, procs, grain int, strat, obj string, cm repro.CommModel, beta2 float64, reps int, bcap *capture) error {
	m, _, err := repro.BuildMatrix(matrix)
	if err != nil {
		return err
	}
	an, err := repro.AnalyzePattern(m)
	if err != nil {
		return err
	}
	w := csv.NewWriter(out)
	defer w.Flush()
	row := func(fields ...string) error { return w.Write(fields) }
	partOpts := func(g, width int) repro.StrategyOptions {
		return repro.StrategyOptions{Part: repro.PartitionOptions{Grain: g, MinClusterWidth: width}}
	}
	mean := func(total int64, p int) string { return fmt.Sprintf("%.1f", float64(total)/float64(p)) }

	switch kind {
	case "procs":
		if err := row("procs", "scheme", "traffic", "mean_traffic", "imbalance",
			"efficiency_bound", "makespan_eff_static"); err != nil {
			return err
		}
		for _, p := range procsSweep {
			for _, scheme := range []string{"block", "wrap"} {
				pl, err := an.Plan(scheme, p, partOpts(grain, 4))
				if err != nil {
					return err
				}
				if err := row(strconv.Itoa(p), scheme,
					fmt.Sprint(pl.TrafficTotal()), mean(pl.TrafficTotal(), p),
					fmt.Sprintf("%.4f", pl.S1.Imbalance()), fmt.Sprintf("%.4f", pl.S1.Efficiency()),
					fmt.Sprintf("%.4f", pl.Makespan().Efficiency)); err != nil {
					return err
				}
			}
		}
	case "grain":
		if err := row("grain", "units", "traffic", "imbalance"); err != nil {
			return err
		}
		for _, g := range grainSweep {
			pl, err := an.Plan("block", procs, partOpts(g, 4))
			if err != nil {
				return err
			}
			if err := row(strconv.Itoa(g), strconv.Itoa(len(pl.Tasks)),
				fmt.Sprint(pl.TrafficTotal()), fmt.Sprintf("%.4f", pl.S1.Imbalance())); err != nil {
				return err
			}
		}
	case "width":
		if err := row("width", "units", "clusters", "traffic", "imbalance"); err != nil {
			return err
		}
		for _, wd := range widthSweep {
			pl, err := an.Plan("block", procs, partOpts(grain, wd))
			if err != nil {
				return err
			}
			part := an.Sys().Partition(pl.Opts.Part)
			if err := row(strconv.Itoa(wd), strconv.Itoa(len(part.Units)),
				strconv.Itoa(len(part.Clusters)),
				fmt.Sprint(pl.TrafficTotal()), fmt.Sprintf("%.4f", pl.S1.Imbalance())); err != nil {
				return err
			}
		}
	case "strategy":
		if err := row("strategy", "procs", "traffic", "mean_traffic", "imbalance",
			"efficiency_bound", "makespan_eff"); err != nil {
			return err
		}
		names := repro.Strategies()
		if strat != "" {
			names = []string{strat}
		}
		opts := repro.StrategyOptions{
			Part:      repro.PartitionOptions{Grain: grain, MinClusterWidth: 4},
			Objective: obj,
			Comm:      cm,
			Beta2:     beta2,
		}
		for _, name := range names {
			pl, err := an.Plan(name, procs, opts)
			if err != nil {
				return err
			}
			if err := row(name, strconv.Itoa(procs),
				fmt.Sprint(pl.TrafficTotal()), mean(pl.TrafficTotal(), procs),
				fmt.Sprintf("%.4f", pl.S1.Imbalance()), fmt.Sprintf("%.4f", pl.S1.Efficiency()),
				fmt.Sprintf("%.4f", pl.Makespan().Efficiency)); err != nil {
				return err
			}
			if err := bcap.observe(matrix, "strategy", name, pl, cm); err != nil {
				return err
			}
		}
	case "comm":
		if err := row("strategy", "procs", "alpha", "beta", "fetch_vol", "fetch_msgs",
			"span_compute", "span_comm", "span_comm_dynamic", "comm_frac"); err != nil {
			return err
		}
		names := repro.Strategies()
		if strat != "" {
			names = []string{strat}
		}
		opts := repro.StrategyOptions{
			Part:      repro.PartitionOptions{Grain: grain, MinClusterWidth: 4},
			Objective: obj,
			Comm:      cm,
			Beta2:     beta2,
		}
		for _, name := range names {
			for _, p := range procsSweep {
				pl, err := an.Plan(name, p, opts)
				if err != nil {
					return err
				}
				tc := pl.Fetch
				comp := pl.Makespan()
				cs := pl.MakespanComm(cm)
				cd := pl.Simulate(repro.SimOptions{Dynamic: true, Comm: cm})
				frac := 0.0
				if cd.TotalWork > 0 {
					frac = float64(cd.Comm) / float64(cd.TotalWork)
				}
				if err := row(name, strconv.Itoa(p),
					fmt.Sprintf("%g", cm.Alpha), fmt.Sprintf("%g", cm.Beta),
					fmt.Sprint(tc.TotalVol()), fmt.Sprint(tc.TotalMsgs()),
					fmt.Sprint(comp.Makespan), fmt.Sprint(cs.Makespan),
					fmt.Sprint(cd.Makespan), fmt.Sprintf("%.4f", frac)); err != nil {
					return err
				}
				if err := bcap.observe(matrix, "comm", name, pl, cm); err != nil {
					return err
				}
			}
		}
	case "tile2d":
		if err := row("strategy", "procs", "r", "traffic2d", "fanout", "fanin",
			"imbalance", "span_compute", "span_comm", "span_comm_dynamic"); err != nil {
			return err
		}
		for _, choice := range tile2dChoices(strat) {
			for _, p := range procsSweep {
				pl, err := plan2D(an, choice, p, repro.StrategyOptions{Beta2: beta2})
				if err != nil {
					return err
				}
				tr := pl.Traffic2D()
				comp := pl.Simulate(repro.SimOptions{Dynamic: true})
				cs := pl.MakespanComm(cm)
				cd := pl.Simulate(repro.SimOptions{Dynamic: true, Comm: cm})
				if err := row(choice, strconv.Itoa(p), strconv.Itoa(pl.S2.R()),
					fmt.Sprint(tr.Total), fmt.Sprint(tr.TotalFanOut()), fmt.Sprint(tr.TotalFanIn()),
					fmt.Sprintf("%.4f", pl.S2.Imbalance()), fmt.Sprint(comp.Makespan),
					fmt.Sprint(cs.Makespan), fmt.Sprint(cd.Makespan)); err != nil {
					return err
				}
				if err := bcap.observe(matrix, "tile2d", choice, pl, cm); err != nil {
					return err
				}
			}
		}
	case "measure":
		// Real wall-clock runs of the parallel 2D engine (bit-identity
		// verified on every run) next to the comm-aware static prediction of
		// the same task graph. CSV only: repeated timings live outside the
		// deterministic -ledger/-trace machinery.
		if err := row("strategy", "procs", "serial_ns", "parallel_ns",
			"speedup", "predicted_speedup", "predicted_makespan", "traffic2d"); err != nil {
			return err
		}
		for _, choice := range tile2dChoices(strat) {
			for _, p := range measureSweep {
				pl, err := plan2D(an, choice, p, repro.StrategyOptions{})
				if err != nil {
					return err
				}
				mes, err := pl.Measure(m, repro.MeasureOptions{Repeats: reps})
				if err != nil {
					return err
				}
				pred := pl.MakespanComm(cm)
				if err := row(choice, strconv.Itoa(p),
					fmt.Sprint(mes.SerialNs), fmt.Sprint(mes.ParallelNs),
					fmt.Sprintf("%.4f", mes.Speedup),
					fmt.Sprintf("%.4f", float64(an.Total)/float64(max(pred.Makespan, 1))),
					fmt.Sprint(pred.Makespan), fmt.Sprint(pl.TrafficTotal())); err != nil {
					return err
				}
			}
		}
	case "calibrate":
		// Pass 1: measure every 2D strategy across the processor sweep and
		// pool the per-task durations into one least-squares fit of
		// {Alpha, Beta, Gamma} plus the nanosecond scale. Pass 2: score the
		// uncalibrated and calibrated speedup predictions per row.
		if err := row("strategy", "procs", "serial_ns", "parallel_ns", "measured_speedup",
			"uncal_speedup", "cal_speedup", "uncal_ape", "cal_ape",
			"alpha", "beta", "gamma", "ns_per_work", "r2"); err != nil {
			return err
		}
		type calPoint struct {
			choice string
			pl     *repro.Plan
			mes    *repro.Measurement
		}
		fitter := repro.NewFitter()
		var points []calPoint
		for _, choice := range tile2dChoices(strat) {
			for _, p := range measureSweep {
				pl, err := plan2D(an, choice, p, repro.StrategyOptions{})
				if err != nil {
					return err
				}
				mes, err := pl.Measure(m, repro.MeasureOptions{Repeats: reps})
				if err != nil {
					return err
				}
				if err := fitter.Add(mes.Events, pl.Tasks, pl.Fetch); err != nil {
					return err
				}
				points = append(points, calPoint{choice, pl, mes})
			}
		}
		model, report, err := fitter.Fit(repro.FitOptions{})
		if err != nil {
			return err
		}
		for _, pt := range points {
			uncal := pt.pl.MakespanComm(cm).Makespan
			cal := pt.pl.MakespanComm(model.Comm).Makespan
			uncalSpeedup := float64(an.Total) / float64(max(uncal, 1))
			calNs := math.Max(model.SpanNs(cal), 1)
			calSpeedup := float64(pt.mes.SerialNs) / calNs
			if err := row(pt.choice, strconv.Itoa(pt.pl.P),
				fmt.Sprint(pt.mes.SerialNs), fmt.Sprint(pt.mes.ParallelNs),
				fmt.Sprintf("%.4f", pt.mes.Speedup),
				fmt.Sprintf("%.4f", uncalSpeedup), fmt.Sprintf("%.4f", calSpeedup),
				fmt.Sprintf("%.2f", ape(uncalSpeedup, pt.mes.Speedup)),
				fmt.Sprintf("%.2f", ape(calSpeedup, pt.mes.Speedup)),
				fmt.Sprintf("%.6g", model.Comm.Alpha), fmt.Sprintf("%.6g", model.Comm.Beta),
				fmt.Sprintf("%.6g", model.Comm.Gamma), fmt.Sprintf("%.6g", model.NsPerWork),
				fmt.Sprintf("%.4f", report.R2)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown series kind %q", kind)
	}
	return nil
}

// ape is the absolute percentage error of a predicted speedup against
// the measured one (percent).
func ape(pred, measured float64) float64 {
	if measured == 0 {
		return 0
	}
	return 100 * math.Abs(pred-measured) / measured
}

// tile2dChoices enumerates the tile2d sweep's strategy axis: every native
// 2D mapper (col2d excluded, it is parameterized) plus the col2d lift of
// every column-granular 1D strategy, spelled "col2d:<base>". A non-empty
// only keeps just that choice (none, if it is not on the axis).
func tile2dChoices(only string) []string {
	var out []string
	add := func(choice string) {
		if only == "" || choice == only {
			out = append(out, choice)
		}
	}
	for _, name := range repro.Strategies2D() {
		if name != "col2d" {
			add(name)
		}
	}
	for _, base := range repro.LiftBases2D() {
		add("col2d:" + base)
	}
	return out
}

// plan2D maps one choice of the tile2d axis: a native 2D mapper by name,
// or "col2d:<base>" as the col2d lift of that base.
func plan2D(an *repro.Analysis, choice string, p int, opts repro.StrategyOptions) (*repro.Plan, error) {
	if base, ok := strings.CutPrefix(choice, "col2d:"); ok {
		opts.Base = base
		return an.Plan2D("col2d", p, opts)
	}
	return an.Plan2D(choice, p, opts)
}
