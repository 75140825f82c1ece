#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in, then runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload fleet-swap --seed 1 --seconds 20 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal ]]; then
	echo "perfbench: run from the root of the repository source tree" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
