#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash benchmark/run.sh --workload matrix --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and trace files stay in .bench_build/
# at the repository root; the toolchain never downloads anything.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

go build -C benchmark -o "$out/magus-bench" .
exec "$out/magus-bench" "$@"
