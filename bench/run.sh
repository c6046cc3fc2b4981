#!/usr/bin/env bash
# Entry point BENCHMARK.json names: build the harness into the checkout's
# own .bench_build (build cache included, so nothing outside the checkout
# is written) and run it from the repository root with the caller's flags.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/.bench_build/gocache"
mkdir -p "$root/.bench_build/bin"
go -C "$root/bench" build -o "$root/.bench_build/bin/flowrankbench" . >&2
cd "$root"
exec "$root/.bench_build/bin/flowrankbench" "$@"
