#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#	bash perfbench/run.sh --workload campaign-busy --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the go command's
# configuration and telemetry, the binary and the generated inputs all
# stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
go build -C "$root/perfbench" -o "$build/bin/perfbench" . >&2
exec "$build/bin/perfbench" --dir "$build/work" "$@"
