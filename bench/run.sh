#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# Go's build cache included) and runs it with the given arguments.
# BENCHMARK.json names this script as its command; it must be started from
# the root of a checkout.
set -euo pipefail
root=$PWD
[ -f "$root/bench/go.mod" ] || { echo "bench/run.sh: start me from the checkout root" >&2; exit 2; }
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go -C "$root/bench" build -o "$build/strip-bench" .
exec "$build/strip-bench" "$@"
