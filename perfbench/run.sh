#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload campaign-grid --seed 42 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, including the Go build
# cache, stay under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off GOTELEMETRY=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
