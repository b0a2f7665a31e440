#!/usr/bin/env bash
# Builds gpuport, gpuportd and the benchmark from the tree under test,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash cmd/perfbench/run.sh --workload collect --seed 42 --seconds 50 --trace 0
#   bash cmd/perfbench/run.sh --selftest
#
# Everything it builds or writes stays under .bench_build/ in the
# repository root, including the Go build cache.
set -euo pipefail

root=$(pwd)
for p in go.mod cmd/gpuport cmd/gpuportd cmd/perfbench/go.mod; do
    if [ ! -e "$root/$p" ]; then
        echo "perfbench: $root is not a gpuport checkout (no $p); run from the repository root" >&2
        exit 2
    fi
done

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config" "$build/gopath"
# The go command's caches and config, and every temporary file, stay in
# the checkout; the build never needs the network.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
    TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" \
    GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

go build -o "$build/bin/" ./cmd/gpuport ./cmd/gpuportd
(cd cmd/perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
