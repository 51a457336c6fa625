#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Build cache, binary and the run's containers all stay
# under .bench_build in the directory it is started from (the checkout
# root), which must hold BENCHMARK.json.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
