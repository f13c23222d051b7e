#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build in the checkout root.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$bench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
