#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there, so that nothing is read or written
# outside the checkout (Go's build cache and temporary files included).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/goopc-bench" . >&2
exec "$build/goopc-bench" "$@"
