// Command sweep emits CSV data series for plotting: processor sweeps,
// grain sweeps, width sweeps and cross-strategy sweeps over any of the
// test matrices, with one row per configuration. It is the data generator
// behind the trade-off curves discussed in EXPERIMENTS.md.
//
// The command computes nothing itself: every series is a study of
// internal/tables (the same ones cmd/paperbench prints as text) rendered
// as CSV, and this file is flag parsing plus the -kind registry.
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
	"cmp"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro"
	"repro/internal/tables"
)

var (
	procsSweep   = []int{1, 2, 4, 8, 16, 32, 64}
	grainSweep   = []int{2, 4, 8, 16, 25, 50, 100, 200}
	widthSweep   = []int{2, 3, 4, 6, 8, 12, 16}
	measureSweep = []int{1, 4, 16, 64}
)

// params are the study parameters the flags select.
type params struct {
	procs, grain, reps int
	strat, obj         string
	cm                 repro.CommModel
	beta2              float64
}

// opts are the mapping options of the 1D series that take every knob.
func (o params) opts() repro.StrategyOptions {
	return repro.StrategyOptions{
		Part:      repro.PartitionOptions{Grain: o.grain, MinClusterWidth: tables.DefaultWidth},
		Objective: o.obj, Comm: o.cm, Beta2: o.beta2,
	}
}

// axis narrows a label axis to -strategy: all of it when the flag is
// unset, that one label when it is on the axis, nothing otherwise (-kind
// all with a 1D -strategy leaves the 2D series empty).
func (o params) axis(all []string) []string {
	if o.strat == "" {
		return all
	}
	if slices.Contains(all, o.strat) {
		return []string{o.strat}
	}
	return nil
}

// perLabel runs study once per label and concatenates the rows: the
// label-major order of the CSV series (each label's processor sweep
// together), and no rows at all for an empty axis.
func perLabel[R any](labels []string, study func(label []string) ([]R, error)) ([]R, error) {
	var all []R
	for _, l := range labels {
		rows, err := study([]string{l})
		if err != nil {
			return nil, err
		}
		all = append(all, rows...)
	}
	return all, nil
}

// series is one -kind: a study of internal/tables rendered as CSV. The
// bench kinds also return their cells, which -ledger and -trace replay;
// the 2D kinds validate -strategy against the 2D axis; the measured kinds
// time real runs (they honour -repeats and stay out of -kind all).
type series struct {
	name                 string
	bench, dim2, measure bool
	csv                  func(p *tables.Problem, o params) (string, []tables.Cell, error)
}

// registry is the -kind axis, in the order -kind all writes it.
var registry = []series{
	{name: "procs", csv: func(p *tables.Problem, o params) (string, []tables.Cell, error) {
		rows, err := tables.StrategyCompare([]*tables.Problem{p}, procsSweep, []string{"block", "wrap"}, o.opts())
		return tables.ProcsCSV(rows), nil, err
	}},
	{name: "grain", csv: func(p *tables.Problem, o params) (string, []tables.Cell, error) {
		rows, err := tables.BlockSweep(p, o.procs, grainSweep, []int{tables.DefaultWidth})
		return tables.GrainCSV(rows), nil, err
	}},
	{name: "width", csv: func(p *tables.Problem, o params) (string, []tables.Cell, error) {
		rows, err := tables.BlockSweep(p, o.procs, []int{o.grain}, widthSweep)
		return tables.WidthCSV(rows), nil, err
	}},
	{name: "strategy", bench: true, csv: func(p *tables.Problem, o params) (string, []tables.Cell, error) {
		rows, err := tables.StrategyCompare([]*tables.Problem{p}, []int{o.procs}, o.axis(repro.Strategies()), o.opts())
		return tables.StrategyCSV(rows), tables.Cells(rows), err
	}},
	{name: "comm", bench: true, csv: func(p *tables.Problem, o params) (string, []tables.Cell, error) {
		rows, err := perLabel(o.axis(repro.Strategies()), func(l []string) ([]tables.UnifiedRow, error) {
			return tables.UnifiedComm(p, procsSweep, l, o.opts(), o.cm)
		})
		return tables.CommCSV(o.cm, rows), tables.Cells(rows), err
	}},
	{name: "tile2d", bench: true, dim2: true, csv: func(p *tables.Problem, o params) (string, []tables.Cell, error) {
		rows, err := perLabel(o.axis(tables.Labels2D()), func(l []string) ([]tables.Tile2DRow, error) {
			return tables.Tile2D(p, procsSweep, l, repro.StrategyOptions{Beta2: o.beta2}, o.cm)
		})
		return tables.Tile2DCSV(rows), tables.Cells(rows), err
	}},
	{name: "measure", dim2: true, measure: true, csv: func(p *tables.Problem, o params) (string, []tables.Cell, error) {
		rows, err := measured(p, o)
		return tables.MeasureCSV(rows), nil, err
	}},
	{name: "calibrate", dim2: true, measure: true, csv: func(p *tables.Problem, o params) (string, []tables.Cell, error) {
		// Pass 1 measures every 2D strategy across the processor sweep;
		// pass 2 pools the per-task durations into one fit and scores the
		// uncalibrated and calibrated speedup predictions per row.
		rows, err := measured(p, o)
		if err != nil {
			return "", nil, err
		}
		st, err := tables.Calibration(rows)
		if err != nil {
			return "", nil, err
		}
		return tables.CalibrateCSV(st), nil, nil
	}},
}

// measured is the measurement pass of the two measured kinds: real
// wall-clock runs of the parallel 2D engine (bit-identity verified on
// every run) next to the comm-aware static prediction of the same graph.
func measured(p *tables.Problem, o params) ([]tables.MeasureRow, error) {
	return perLabel(o.axis(tables.Labels2D()), func(l []string) ([]tables.MeasureRow, error) {
		return tables.Measured(p, measureSweep, l, o.cm, o.reps)
	})
}

// benchKinds lists the kinds -ledger and -trace apply to.
func benchKinds() string {
	var names []string
	for _, s := range registry {
		if s.bench {
			names = append(names, s.name)
		}
	}
	return strings.Join(names, ", ")
}

// lookup finds a -kind in the registry.
func lookup(kind string) (series, bool) {
	i := slices.IndexFunc(registry, func(s series) bool { return s.name == kind })
	if i < 0 {
		return series{}, false
	}
	return registry[i], true
}

// loadProblem loads a suite matrix by name; the fail-fast tests replace it
// to prove a rejected flag never reaches it.
var loadProblem = tables.LoadNamed

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	var o params
	kind := fs.String("kind", "procs", "series: procs, grain, width, strategy, comm, tile2d, measure, calibrate, or all")
	matrix := fs.String("matrix", "LAP30", "test matrix name")
	fs.IntVar(&o.procs, "procs", 16, "processors (grain, width and strategy sweeps)")
	fs.IntVar(&o.grain, "grain", 25, "grain size (procs, width and strategy sweeps)")
	fs.StringVar(&o.strat, "strategy", "", "restrict the strategy sweep to one registered strategy (default all: "+strings.Join(repro.Strategies(), ", ")+")")
	fs.StringVar(&o.obj, "objective", "", "refine objective for the refine strategy (one of: "+strings.Join(repro.RefineObjectives(), ", ")+"; default imbalance)")
	out := fs.String("out", "", "output directory for -kind all (default stdout for single series)")
	fs.Float64Var(&o.cm.Alpha, "alpha", 2, "comm model: work units per fetched element (comm sweep, commspan objective)")
	fs.Float64Var(&o.cm.Beta, "beta", 10, "comm model: work units per received message (comm sweep, commspan objective)")
	fs.Float64Var(&o.beta2, "beta2", 0, "contigtotal objective: weight of per-cut message counts next to volume")
	trace := fs.String("trace", "", "write the traced comm-aware dynamic run of the single -strategy at -procs to this path (kinds strategy, comm, tile2d)")
	tracef := fs.String("traceformat", "chrome", "trace export format: "+strings.Join(repro.TraceFormats(), " or "))
	ledger := fs.String("ledger", "", "write one BENCH record per sweep row to this path (kinds strategy, comm, tile2d)")
	fs.IntVar(&o.reps, "repeats", 3, "repeat-and-min count for the measure sweep's wall-clock timings")
	fs.Parse(args)

	// Every flag is checked against its registry before any matrix is
	// built, and the observability files are created up front, so a typo
	// can't surface after a long simulation or mid-CSV.
	// !(x >= 0) also rejects NaN, which a plain x < 0 lets through.
	if !(o.cm.Alpha >= 0) || !(o.cm.Beta >= 0) || math.IsInf(o.cm.Alpha, 0) || math.IsInf(o.cm.Beta, 0) {
		return fmt.Errorf("invalid comm model: alpha=%g beta=%g (both must be finite and >= 0)", o.cm.Alpha, o.cm.Beta)
	}
	if !(o.beta2 >= 0) || math.IsInf(o.beta2, 0) {
		return fmt.Errorf("invalid -beta2 %g (must be finite and >= 0)", o.beta2)
	}
	s, ok := lookup(*kind)
	if !ok && *kind != "all" {
		return fmt.Errorf("unknown series kind %q", *kind)
	}
	choices, what := repro.Strategies(), "strategy"
	if s.dim2 {
		choices, what = tables.Labels2D(), "2D strategy"
	}
	if err := cmp.Or(
		validateChoice(what, o.strat, choices),
		validateRepeats(*kind, o.reps),
		validateChoice("refine objective", o.obj, repro.RefineObjectives()),
	); err != nil {
		return err
	}
	if *trace != "" {
		if err := validateChoice("trace format", *tracef, repro.TraceFormats()); err != nil {
			return err
		}
	}
	files := make(map[string]*os.File)
	for _, out := range []struct{ flag, path string }{{"-trace", *trace}, {"-ledger", *ledger}} {
		if out.path == "" {
			continue
		}
		if !s.bench {
			return fmt.Errorf("%s requires -kind %s (got %q)", out.flag, benchKinds(), *kind)
		}
		if out.flag == "-trace" && o.strat == "" {
			return fmt.Errorf("-trace requires a single -strategy to capture")
		}
		f, err := os.Create(out.path)
		if err != nil {
			return fmt.Errorf("%s: %v", out.flag, err)
		}
		defer f.Close()
		files[out.flag] = f
	}

	if *kind == "all" {
		if *out == "" {
			return fmt.Errorf("-kind all requires -out")
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		// One analysis per matrix serves all of its series.
		for _, tm := range repro.TestMatrices() {
			p, err := loadProblem(tm.Name)
			if err != nil {
				return err
			}
			for _, s := range registry {
				if s.measure {
					continue
				}
				text, _, err := s.csv(p, o)
				if err != nil {
					return err
				}
				path := filepath.Join(*out, strings.ToLower(tm.Name)+"_"+s.name+".csv")
				if err := os.WriteFile(path, []byte(text), 0o666); err != nil {
					return err
				}
				fmt.Fprintf(stderr, "wrote %s\n", path)
			}
		}
		return nil
	}
	p, err := loadProblem(*matrix)
	if err != nil {
		return err
	}
	text, cells, err := s.csv(p, o)
	if err != nil {
		return err
	}
	io.WriteString(stdout, text)
	if f := files["-ledger"]; f != nil {
		l := repro.NewLedger()
		for _, c := range cells {
			rec, err := c.Record(*kind, o.cm)
			if err != nil {
				return err
			}
			l.Add(rec)
		}
		if err := l.Write(f); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s (%d records)\n", *ledger, len(l.Records))
	}
	if f := files["-trace"]; f != nil {
		i := slices.IndexFunc(cells, func(c tables.Cell) bool { return c.Strategy == o.strat && c.P == o.procs })
		if i < 0 {
			return fmt.Errorf("-trace: strategy %q at -procs %d never ran in the %s sweep", o.strat, o.procs, *kind)
		}
		if err := cells[i].WriteTrace(f, *tracef, o.cm); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *trace)
	}
	return nil
}

// validateRepeats rejects a repeat-and-min count the measurement kinds
// cannot honour, before any sweep work starts. Kinds that never time a
// real run ignore -repeats and accept anything.
func validateRepeats(kind string, reps int) error {
	if s, _ := lookup(kind); s.measure && reps < 1 {
		return fmt.Errorf("invalid -repeats %d for -kind %s (want >= 1)", reps, kind)
	}
	return nil
}

// validateChoice rejects a flag value that is set but not among the
// registered choices, listing them — so an unknown -strategy or
// -objective can't die mid-sweep.
func validateChoice(name, value string, choices []string) error {
	if value == "" || slices.Contains(choices, value) {
		return nil
	}
	return fmt.Errorf("unknown %s %q (registered: %s)", name, value, strings.Join(choices, ", "))
}
