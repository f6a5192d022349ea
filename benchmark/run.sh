#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the
# arguments given: the command BENCHMARK.json names. The Go build cache
# and the binary live in .bench_build/ at the repository root, so
# nothing is read or written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
