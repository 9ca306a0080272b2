#!/usr/bin/env bash
# Builds the toolchain benchmark from source and runs it from the root
# of the checkout; every argument is passed through to it.
#
#   bash toolbench/run.sh --workload kernels --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build (or
# $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd toolbench && go build -o "$out/toolbench" .)
exec "$out/toolbench" "$@"
