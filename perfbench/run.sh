#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload recon --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# temp dirs, trace files) goes under .bench_build/ in the current
# directory, so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOENV=off

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
