package exec

import (
	"fmt"
	"math"
	"time"

	"repro/internal/numeric"
	"repro/internal/sparse"
)

// MeasureOptions configures Program.Measure.
type MeasureOptions struct {
	// Kernel selects the factorization, for the program and for the
	// serial reference alike; the zero value is Cholesky.
	Kernel numeric.Kernel
	// Repeats is the repeat-and-min count applied to both the serial and
	// the parallel timing; <= 0 selects 3.
	Repeats int
}

// Measurement is the outcome of one wall-clock comparison between the
// serial factorization and the compiled program on the same matrix and
// task graph. Times are minima over Repeats runs (repeat-and-min filters
// scheduler noise); the task graph is compiled once, outside the timed
// region, and every parallel run is verified bit-for-bit against the
// serial factor before its time is accepted.
type Measurement struct {
	P          int
	Repeats    int
	SerialNs   int64   // fastest serial run, nanoseconds
	ParallelNs int64   // fastest parallel run, nanoseconds
	Speedup    float64 // SerialNs / ParallelNs
	// Events hold the per-task real executions of the fastest parallel
	// run, on a nanosecond timeline starting when the workers launched.
	// Unlike simulator events, a real event's Stall is the measured gap
	// since the worker's previous finish and may be positive with Cause ==
	// -1 (startup or scheduling delay rather than a blocking predecessor),
	// so they aggregate through obs.RealProfile, not obs.BuildProfile; the
	// Chrome-trace and Gantt exporters accept them directly.
	Events []TaskEvent
	// Factor is the parallel result (bit-identical to the serial factor).
	Factor *NumericFactor
}

// Measure times the serial reference factorization against the compiled
// program on the same inputs, verifying bit-identity on every parallel
// run. This is what makes the makespan simulation falsifiable: the
// predicted schedule and the measured execution share one task graph.
func (pg *Program) Measure(m *sparse.Matrix, opts MeasureOptions) (*Measurement, error) {
	f, p := pg.f, pg.p
	reps := opts.Repeats
	if reps <= 0 {
		reps = 3
	}
	var serialVal []float64
	serialNs := int64(math.MaxInt64)
	for r := 0; r < reps; r++ {
		//repro:allow nondeterminism -- measurement harness: wall-clock feeds only the reported SerialNs timing, never factor values; the parallel/serial bit-comparison below is the determinism check itself
		start := time.Now()
		val, err := opts.Kernel.Factorize(m, f)
		if err != nil {
			return nil, err
		}
		if d := time.Since(start).Nanoseconds(); d < serialNs {
			serialNs = d
		}
		serialVal = val
	}
	parallelNs := int64(math.MaxInt64)
	var best *NumericFactor
	var bestEvents []TaskEvent
	for r := 0; r < reps; r++ {
		//repro:allow nondeterminism -- measurement harness: wall-clock feeds only the reported ParallelNs timing; every rep's values are compared bit-for-bit against the serial factor right below
		start := time.Now()
		nf, events, err := pg.Run(m, opts.Kernel, true)
		d := time.Since(start).Nanoseconds()
		if err != nil {
			return nil, err
		}
		for q := range serialVal {
			if math.Float64bits(nf.Val[q]) != math.Float64bits(serialVal[q]) {
				return nil, fmt.Errorf("exec: parallel run %d diverged from serial at position %d: %g vs %g",
					r, q, nf.Val[q], serialVal[q])
			}
		}
		if d < parallelNs {
			parallelNs, best, bestEvents = d, nf, events
		}
	}
	// Clock granularity can report 0 ns on degenerate inputs; pin to 1 so
	// the speedup stays finite.
	if serialNs < 1 {
		serialNs = 1
	}
	if parallelNs < 1 {
		parallelNs = 1
	}
	return &Measurement{
		P: p, Repeats: reps,
		SerialNs: serialNs, ParallelNs: parallelNs,
		Speedup: float64(serialNs) / float64(parallelNs),
		Events:  bestEvents, Factor: best,
	}, nil
}
