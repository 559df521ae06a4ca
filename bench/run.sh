#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it from the root of
# the repository:
#
#   bash bench/run.sh -out bench-out [-workload regexp] [-seed S] [-reps N]
#   bash bench/run.sh --workload amazon-p2 --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and binaries stay under
# .bench_build/ in the current directory, so nothing is written outside
# it. Fails without printing a result when the repository's source is
# not beside bench/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
