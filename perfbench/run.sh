#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload sim-lockstep --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the simd stores all live under
# .bench_build/ in the checkout; nothing is written anywhere else.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/run" "$@"
