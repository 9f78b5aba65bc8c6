#!/usr/bin/env bash
# Builds enginebench from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash enginebench/run.sh --workload steal-uniform --seed 1 --seconds 10 --trace 0
#
# Run from the repository root.  Build outputs, the Go build cache and
# span files stay under .bench_build/ in the checkout, and so do the
# go command's telemetry counters and any module cache: they would
# otherwise go to the user's config directory and GOPATH.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
go -C enginebench build -o "$out/enginebench" .
exec "$out/enginebench" "$@"
