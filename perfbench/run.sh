#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload churn-12k --seed 1 --seconds 2 --trace 0
# Run from the repository root. Build cache, binary and generated inputs
# all stay under .bench_build/ in the working directory.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
