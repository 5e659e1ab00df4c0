#!/usr/bin/env bash
# Builds the simulator benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload table3 --seed 1 --seconds 25 --trace 0
#
# Every build artifact (Go build cache, binary) stays under .bench_build in
# the current directory; nothing is fetched, so a checkout without the
# simulator sources fails to build and exits nonzero.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
