#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments, e.g.
#   bash benchmark/run.sh --workload mesh16-uniform --seed 1 --seconds 30 --trace 0
# Every file the Go toolchain or the benchmark writes stays under
# .bench_build/ in the current directory, which must be the repository
# root.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run from the repository root" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOTELEMETRY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
