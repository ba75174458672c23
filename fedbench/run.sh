#!/usr/bin/env bash
# Builds the federation benchmark from source and runs it. Run from
# the repository root:
#
#   bash fedbench/run.sh --workload relay_mix --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays inside the checkout, under
# .bench_build/ (or $CARGO_TARGET_DIR when it is set): the Go build
# cache, temporary files, the go command's config and telemetry
# counters, the binary, run records and trace spans.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod

go build -C "$root/fedbench" -o "$build/fedbench-bin" .
exec "$build/fedbench-bin" --out "$build/fedbench" "$@"
