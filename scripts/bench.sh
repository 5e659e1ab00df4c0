#!/usr/bin/env bash
# bench.sh — simulator performance harness.
#
# Runs the checked-in benchmark suite and refreshes the machine-readable
# baselines: BENCH_table3.json (per-row Table 3 results + host throughput)
# and BENCH_chip.json (chip benchmarks: production-stepper rows plus one
# NoFastPath reference-stepper row each, with host time per op).
#
#   scripts/bench.sh            quick smoke: Table 3 once + Figure 5b + chip
#                               benches, JSON refresh
#   scripts/bench.sh full       adds multi-iteration Figure 5b and the ablations
#   scripts/bench.sh compare    fresh runs into temp files, diffed against the
#                               checked-in baselines: exits nonzero if any
#                               simulated cycle count drifted (host-time
#                               deltas are informational)
#
# The simulated results in both files are deterministic; only the host-time
# fields (wall_ns, ns_per_op, ...) vary by machine.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-smoke}"

echo "== go vet =="
go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
  echo "== staticcheck =="
  staticcheck ./...
fi

echo "== build =="
go build ./...

echo "== race: proc + micronet + chip + nuca =="
go test -race ./internal/proc/ ./internal/micronet/ ./internal/chip/ ./internal/nuca/

if [ "$mode" = "compare" ]; then
  # Install the cleanup handler before mktemp so an interrupt between the
  # two can't leak the temp files; INT/TERM also go through it.
  fresh=""
  freshchip=""
  trap '[ -z "$fresh" ] || rm -f "$fresh"; [ -z "$freshchip" ] || rm -f "$freshchip"' EXIT INT TERM
  fresh="$(mktemp /tmp/bench_table3.XXXXXX.json)"
  freshchip="$(mktemp /tmp/bench_chip.XXXXXX.json)"
  echo "== Table 3 (once) + Figure 5b, fresh baseline -> $fresh =="
  BENCH_TABLE3_JSON="$fresh" \
    go test -run '^$' -bench 'Table3$|Figure5bCommitPipeline' -benchtime=1x -benchmem
  echo "== chip benches, fresh baseline -> $freshchip =="
  BENCH_CHIP_JSON="$freshchip" \
    go test -run '^$' -bench 'ChipDMAStream|NUCAvsPerfectL2' -benchtime=1x
  echo "== compare against checked-in BENCH_table3.json =="
  go run ./cmd/bench-compare BENCH_table3.json "$fresh"
  echo "== compare against checked-in BENCH_chip.json =="
  go run ./cmd/bench-compare -chip BENCH_chip.json "$freshchip"
  echo "compare OK: simulated cycles match the baselines"
  exit 0
fi

echo "== Table 3 (once) + Figure 5b, emitting BENCH_table3.json =="
BENCH_TABLE3_JSON="$PWD/BENCH_table3.json" \
  go test -run '^$' -bench 'Table3$|Figure5bCommitPipeline' -benchtime=1x -benchmem

echo "== chip benches, emitting BENCH_chip.json =="
BENCH_CHIP_JSON="$PWD/BENCH_chip.json" \
  go test -run '^$' -bench 'ChipDMAStream|NUCAvsPerfectL2' -benchtime=20x

if [ "$mode" = "full" ]; then
  echo "== Figure 5b (timed, multi-iteration) =="
  go test -run '^$' -bench 'Figure5bCommitPipeline' -benchtime=2s -benchmem
  echo "== ablations =="
  go test -run '^$' -bench 'Ablation' -benchtime=1x
fi

echo "done; baselines written to BENCH_table3.json and BENCH_chip.json"
