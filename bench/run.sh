#!/usr/bin/env bash
# Builds the benchmark of record from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh                      # every workload, one child each
#
# Everything the build and the run write (Go build cache, binary, temp
# caches, trace artifacts) stays under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench: run from the repository root (go.mod and bench/go.mod must exist)" >&2
	exit 2
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
