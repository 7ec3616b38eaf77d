#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness and runs it
# from the checkout root, keeping every byte the toolchain writes (build
# cache, temp files, binaries) under .bench_build/ inside the checkout.
# Arguments pass through: --workload NAME --seed N --seconds S --trace 0|1.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$build/bin/bench" .
cd "$root"
exec "$build/bin/bench" "$@"
