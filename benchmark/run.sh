#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#	bash benchmark/run.sh --workload serve_read --seed 1 --seconds 20 --trace 0
#
# Builds the harness (a module of its own that imports the parent module
# through a relative replace) and hands over to it. Everything the Go
# toolchain and the harness write stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/bin/actbenchmark" .) >&2
exec "$build/bin/actbenchmark" -root "$root" "$@"
