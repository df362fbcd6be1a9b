#!/usr/bin/env bash
# The benchmark's one command: build the harness and cmd/rfidserve from
# this checkout, then hand every argument to the harness.
#
#   benchmark/run.sh                      all four workloads, untraced then traced
#   benchmark/run.sh --workload export_stream --seed 3 --seconds 12 --trace 0
#   benchmark/run.sh --aa                 the suite twice, compared against the manifest bounds
#
# Everything the build and the runs write stays under .bench_build/ and
# benchmark/out/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOWORK=off
cd "$root/benchmark"
go build -o "$build/bin/benchmark" .
go build -o "$build/bin/rfidserve" repro/cmd/rfidserve
cd "$root"
exec "$build/bin/benchmark" "$@"
