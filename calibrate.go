package repro

// Calibration surface: fit the communication-time model (including the
// per-task fixed-overhead Gamma) to the measured task durations the real
// parallel engine emits (Plan.Measure), so Plan.Simulate predicts wall
// clock instead of abstract work units. See internal/calib for the fit.

import "repro/internal/calib"

// CalibratedModel is a fitted cost model: the work-unit CommModel (with
// Gamma) SimOptions.Comm takes unchanged, the nanosecond-per-work-unit
// scale that converts simulated spans into predicted wall clock, and
// optional per-processor speed multipliers.
type CalibratedModel = calib.CalibratedModel

// FitReport carries the fit diagnostics: sample and dropped-event
// accounting, R², residual percentiles and the power-of-two residual
// histogram.
type FitReport = calib.FitReport

// CalibSample is one measured task execution in a calibration fit.
type CalibSample = calib.Sample

// FitOptions configures Fitter.Fit (per-processor speed multipliers).
type FitOptions = calib.Options

// Fitter accumulates measured runs across processor counts and mappers
// into one least-squares fit.
type Fitter = calib.Fitter

// NewFitter returns an empty calibration fitter.
func NewFitter() *Fitter { return calib.NewFitter() }

// Calibrate fits {Alpha, Beta, Gamma} and the nanosecond scale to one
// measured run of a plan: events are the per-task TaskEvents of
// pl.Measure, tasks and tc the plan's Tasks and Fetch (tc may be nil to
// charge no communication). Fit across several runs with a Fitter when
// calibrating over processor counts or mappers.
func Calibrate(events []TraceEvent, tasks []Task, tc *TaskComm) (CalibratedModel, FitReport, error) {
	return calib.Calibrate(events, tasks, tc)
}
