#!/bin/bash
# Entry point BENCHMARK.json names: builds the benchmark from source
# inside the checkout, then runs it with the arguments it was given.
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C "$root/benchmark" build -o "$build/nestedbench" .
exec "$build/nestedbench" "$@"
