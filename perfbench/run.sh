#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload pr-cached --seed 7 --seconds 10 --trace 0
#
# Every file it writes (Go build cache, binary, session work directories,
# results, traces) stays under .bench_build/ in the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0 \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" -out "$build" "$@"
