#!/usr/bin/env bash
# The driver's entry point: build the benchmark from this checkout and run
# one pass. Everything the build and the run write stays inside the
# checkout, under .bench_build/ and benchmark/out/: the go command's build
# cache, module path, temporary files and telemetry counters are pointed
# there too.
#
#   bash benchmark/run.sh --workload cluster-sat --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
cd "$here"
go build -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" -bindir "$build/bin" -tmpdir "$build/tmp" "$@"
