#!/usr/bin/env bash
# Builds the benchmark, and the repository it measures, from source and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload chain-scale --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, journals) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/tmp" "$@"
