#!/usr/bin/env bash
# Builds the synthesis benchmark from the sources of the checkout it is
# run in, then runs it with the given arguments:
#
#   bash synthbench/run.sh --workload mtp8-nmed --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Every build artifact (binary,
# Go build cache) goes under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/synthbench" && go build -o "$build/synthbench" .) >&2
exec "$build/synthbench" "$@"
