#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-clean --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every other file the toolchain
# writes stay in the build directory: $CARGO_TARGET_DIR, or .bench_build
# in the current directory when that is unset.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$src" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
