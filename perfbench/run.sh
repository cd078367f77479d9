#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload feed-broker --seed 1 --seconds 16 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
# The Go cache, module path, temporary files and the go command's own
# config (telemetry counters included) all stay under .bench_build/.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0
go build -C "$root/perfbench" -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
