package sched

import "fmt"

// CheckProcs is the one processor-count guard of the module: every entry
// point that takes a processor count validates it here, under its own
// package prefix, so a non-positive P reads "pkg: invalid processor count
// P" wherever it is caught instead of dying later on a zero-length
// per-processor slice or a modulo by zero. Entry points that return an
// error return this one.
func CheckProcs(pkg string, p int) error {
	if p < 1 {
		return fmt.Errorf("%s: invalid processor count %d", pkg, p)
	}
	return nil
}

// MustProcs is CheckProcs for entry points with no error return (the
// mappers of this package, the simulators, the low-level split helpers):
// there a non-positive P is a caller bug and panics with the same message.
func MustProcs(pkg string, p int) {
	if err := CheckProcs(pkg, p); err != nil {
		//repro:allow panicpolicy -- the message is CheckProcs's and starts with the calling package's prefix
		panic(err.Error())
	}
}
