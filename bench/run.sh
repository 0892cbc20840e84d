#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload metropolis --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the build's
# scratch files and the binary all live under .bench_build/, so nothing
# is written outside the checkout, and nothing is fetched: the benchmark
# imports only the standard library and this repository.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files in
# the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
