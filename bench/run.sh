#!/usr/bin/env bash
# Builds and runs netemubench from the repository root:
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-trace 0|1] [-seconds 20]
#
# Everything the Go toolchain writes (build cache, module cache, the
# binaries, run directories) stays under .bench_build/ in the checkout,
# and the toolchain is kept offline and on the installed version.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS="-mod=mod -buildvcs=false"
export GOWORK=off
export GOTELEMETRY=off

go -C bench build -o "$build/netemubench" ./netemubench
exec "$build/netemubench" "$@"
