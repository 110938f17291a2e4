#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from the checkout
# it is run in and runs it with the arguments given. Go's build cache, its
# temporary files and the span files all stay under .bench_build in the
# checkout, so nothing is read or written outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="${GOPATH:-$build/gopath}" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
