#!/usr/bin/env bash
# Builds the datapath benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repository root:
#
#   bash dpbench/run.sh --workload attack8192 --seed 1 --seconds 30 --trace 0
#
# Build cache, binary and span dumps stay under .bench_build/ in the
# checkout; the build fails (and the script exits non-zero) when the
# repository's Go module is not beside dpbench/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -C dpbench -o "$out/dpbench" .
exec "$out/dpbench" --out "$out" "$@"
