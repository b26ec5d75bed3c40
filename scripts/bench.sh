#!/bin/sh
# bench.sh — run the simulator benchmark suite and write BENCH_<date>.json
# (see docs/PERFORMANCE.md for how to read the file).
#
# Usage:
#   scripts/bench.sh           full run: 2s per benchmark, writes BENCH_<date>.json
#   scripts/bench.sh smoke     CI regression smoke: enforce the scheduling,
#                              whole-call, trace and sweep-job alloc ceilings
#                              (objects and bytes) and run every benchmark once
#   scripts/bench.sh diff      quick scheduler run, compared against the newest
#                              checked-in BENCH_*.json with `benchjson diff`;
#                              exits nonzero on a ns/op regression beyond
#                              BENCH_DIFF_THRESHOLD (default 0.5 — CI machines
#                              are noisy, so the gate is advisory there)
#
# BENCH_DATE overrides the date stamp (useful for reproducible artifacts).
# POSIX sh; depends only on the Go toolchain.
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "diff" ]; then
    baseline=$(ls BENCH_*.json 2>/dev/null | sort | tail -n 1)
    if [ -z "$baseline" ]; then
        echo "bench.sh diff: no BENCH_*.json baseline checked in" >&2
        exit 2
    fi
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    # Short scheduler-only pass: the micro-benchmarks settle fast enough for
    # a trend signal; the end-to-end benchmarks need the full 2s run.
    go test -bench . -benchmem -benchtime 0.3s -run '^$' \
        ./internal/sim ./internal/sim/rng >"$tmp/sim.txt"
    go run ./cmd/benchjson -date "$(date +%F)" -o "$tmp/current.json" sim="$tmp/sim.txt"
    go run ./cmd/benchjson diff -threshold "${BENCH_DIFF_THRESHOLD:-0.5}" \
        "$baseline" "$tmp/current.json"
    exit $?
fi

if [ "${1:-}" = "smoke" ]; then
    # The alloc-ceiling tests are the hard regression gate: scheduling hot
    # paths (trains included) promise zero steady-state allocations, a
    # whole call must not allocate per packet or per recovery visit, a
    # trace costs 4 bytes per packet, scoring a call allocates nothing, and
    # a sweep job builds no merged trace or loss slice to score its calls;
    # this fails the build if any of them starts allocating again. The 1x
    # bench pass then checks every benchmark in the repo still compiles
    # and runs.
    go test ./internal/sim -run TestSchedulingAllocCeiling -count=1
    go test ./internal/core -run TestCallAllocCeiling -count=1
    go test ./internal/trace -run TestTraceBytesPerPacket -count=1
    go test ./internal/sweep -run TestRunJobByteCeiling -count=1
    go test -bench . -benchtime=1x -benchmem -run '^$' ./...
    exit 0
fi

date=${BENCH_DATE:-$(date +%F)}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Scheduler + RNG micro-benchmarks (the perf contract for internal/sim).
go test -bench . -benchmem -benchtime 2s -run '^$' \
    ./internal/sim ./internal/sim/rng >"$tmp/sim.txt"
# End-to-end experiment benchmarks (whole-call and figure-scale runs).
go test -bench 'Table1|Figure2a|FullDualCall|FullDiversiFiCall' \
    -benchmem -benchtime 2s -run '^$' . >"$tmp/e2e.txt"

go run ./cmd/benchjson -date "$date" -o "BENCH_$date.json" \
    sim="$tmp/sim.txt" e2e="$tmp/e2e.txt"
echo "wrote BENCH_$date.json"
