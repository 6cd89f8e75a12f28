#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it. Everything the
# build and the run write stays under benchmark/out/ (the go build cache
# included), so a checkout is left with nothing outside that directory.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export IDLOG_BENCH_DIR="$dir"
mkdir -p "$dir/out/gotmp"
export GOCACHE="$dir/out/gocache" GOMODCACHE="$dir/out/gomodcache" GOTMPDIR="$dir/out/gotmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$dir" && go build -o out/idlogperf .)
exec "$dir/out/idlogperf" "$@"
