#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it with the given
# flags (see main.go). Everything Go writes — build cache, scratch files,
# binaries — stays under .bench_build/ in the checkout; the harness builds
# cmd/robustdb and bench/ladder there itself.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
