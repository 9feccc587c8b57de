#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
#   bash _sensorbench/run.sh --workload shootout --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ in that root: the Go build cache, the
# binary, scratch cache directories and the span files of traced runs.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build"
mkdir -p "$build"

# Keep the toolchain's caches, config and telemetry inside the checkout,
# and never reach for the network.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$bench_dir" && go build -o "$build/sensorbench" .)
exec "$build/sensorbench" "$@"
