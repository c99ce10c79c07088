#!/usr/bin/env bash
# Runs the whole benchmark twice and checks that the two sets agree within
# the bounds of BENCHMARK.json: every workload untraced and traced, then
# benchmark/agree. Exits non-zero on a failed request, a traced run whose
# spans do not tile, or a disagreement. About eight minutes.
#
#   bash benchmark/check.sh [seed]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
out="$here/out"
mkdir -p "$out"
for set in 1 2; do
  bash "$here/run.sh" --workload all --seed "$seed" --out "$out/set$set.json" > "$out/set$set.txt"
done
build="$(dirname "$here")/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
go run -C "$here" ./agree -bench "$here/../BENCHMARK.json" "$out/set1.json" "$out/set2.json"
