#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (compiler cache and
# temp files stay inside the checkout too) and runs it with the caller's
# arguments. Run from the root of the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
go build -C benchmark -o "$build/scdb-benchmark" .
exec "$build/scdb-benchmark" "$@"
