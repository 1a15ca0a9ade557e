#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and trace files stay under .bench_build/
# in the current directory.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -dir perfbench -out "$out" "$@"
