#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#
#   bash benchmark/run.sh --workload figure4 --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and Go's temporary and config files all go
# under .bench_build/ in the current directory, so nothing is written outside
# the checkout. Outside a checkout of the repository the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
