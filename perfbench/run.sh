#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run
# from, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, the go command's own config and
# telemetry files, and span files all stay in .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
