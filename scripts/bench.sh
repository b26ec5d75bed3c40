#!/bin/sh
# bench.sh smoke — the allocation regression gate for the simulator.
#
# Usage:
#   scripts/bench.sh smoke     enforce the scheduling, whole-call, trace,
#                              sweep-job, cached-resolve, lease-report and
#                              live-forwarding alloc ceilings (objects and
#                              bytes) and run every benchmark once
#
# Performance itself is measured by bench/, the benchmark of record, from
# repeated samples (see bench/README.md).
# POSIX sh; depends only on the Go toolchain.
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" != "smoke" ]; then
    echo "usage: scripts/bench.sh smoke" >&2
    exit 2
fi

# The alloc-ceiling tests are the hard regression gate: scheduling hot
# paths (trains included) promise zero steady-state allocations, a whole
# call must not allocate per packet or per recovery visit and builds its
# world on the storage the previous call released, a trace costs 4 bytes
# per packet, scoring a call allocates nothing, a sweep job builds no
# merged trace or loss slice to score its calls and releases both results
# (job 0 and the mean over a recovery-heavy grid are held, so a call or
# job that stops releasing fails here), a cached job resolves through a
# pooled buffer and a one-pass decode, a lease report's digests encode and
# decode without re-entering encoding/json, and the live middlebox,
# replicator and undelayed link forward a datagram without allocating;
# this fails the build if any of them starts allocating again.
# The 1x bench pass then checks every benchmark in the repo still compiles
# and runs.
go test ./internal/sim -run TestSchedulingAllocCeiling -count=1
go test ./internal/core -run TestCallAllocCeiling -count=1
go test ./internal/trace -run TestTraceBytesPerPacket -count=1
go test ./internal/sweep -run 'TestRunJobByteCeiling|TestRunJobGridByteCeiling|TestCachedResolveAllocCeiling|TestLeaseReportAllocCeiling' -count=1
go test ./internal/emu -run TestMiddleboxForwardsWithoutAllocating -count=1
go test -bench . -benchtime=1x -benchmem -run '^$' ./...
