#!/usr/bin/env bash
# Builds hipecbench from source and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload net_rw_4k --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Everything it and the Go toolchain
# write — build cache, binary, temp files, the store files of
# net_fault_file — stays under .bench_build/ in that checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

# The toolchain keeps its caches in the checkout, reads no user configuration
# and reaches no network: the benchmark module has no dependency but the
# repository around it.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOENV=off

go build -C "$here" -o "$build/hipecbench" ./cmd/hipecbench
exec "$build/hipecbench" "$@"
