#!/usr/bin/env bash
# Builds the relay benchmark from the checkout it sits in and runs it:
#
#   bash relaybench/run.sh --workload echo-small --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build product, Go cache and trace file
# stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/relaybench" && go build -o "$build/relaybench" .)
exec "$build/relaybench" -out "$build" "$@"
