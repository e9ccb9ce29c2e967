#!/usr/bin/env bash
# Builds the benchmark and the mlpserve daemon from the source tree this
# script sits in, then runs the benchmark with the given arguments:
#
#   bash bench/run.sh --workload fit-small --seed 5 --seconds 20 --trace 0
#
# Everything the toolchain and the benchmark write stays inside the tree:
# the build cache, Go's own config and temp files, and the binaries go to
# .bench_build/ at the repository root; results go to bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off

cd "$here"
go build -o "$build/bench" .
go build -o "$build/mlpserve" mlprofile/cmd/mlpserve
exec "$build/bench" -mlpserve "$build/mlpserve" -work "$build/work" "$@"
