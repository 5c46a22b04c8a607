#!/usr/bin/env bash
# Builds perfbench from this checkout and runs one workload, e.g.
#   bash perfbench/run.sh --workload paper-solve --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Build outputs, the Go build cache,
# spans, profiles and the modeled-time ledger all go under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" --out "$build/perfbench" "$@"
