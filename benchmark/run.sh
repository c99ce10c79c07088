#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given; BENCHMARK.json names this script as the command.
#
#   bash benchmark/run.sh --workload mlp_b1_lan --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --workload all --seed 1 --out benchmark/out/set1.json
#
# The binary and the Go build cache live in .bench_build at the root of
# the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/abnn2-benchmark" .)
cd "$root"
exec "$build/abnn2-benchmark" "$@"
