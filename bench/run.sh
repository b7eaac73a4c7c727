#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and becomes it:
# build cache, binary and daemon data all live under .bench_build/ at the
# repository root, nothing is read or written outside the checkout, and
# no process outlives this one (exec replaces the shell).
#
#   bash bench/run.sh --workload meta_churn --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                  # all four workloads, untraced + traced
#   bash bench/run.sh -calibrate 10    # spread of every metric over 10 rounds
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# Everything the go command reads or writes besides the sources (build
# cache, module cache, its own config and telemetry counters under HOME)
# is pointed into the checkout.
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/gkfs-perfbench" .)

cd "$root"
exec "$build/gkfs-perfbench" -dir "$build" -out "$here/out" "$@"
