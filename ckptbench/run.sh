#!/usr/bin/env bash
# Builds the checkpoint/restart benchmark from the sources of the checkout
# it is run from, then runs it with the given arguments:
#
#   bash ckptbench/run.sh --workload ckpt-nn --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs (Go build cache, binary,
# span dumps) stay under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/ckptbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$here" build -o "$out/ckptbench" .
exec "$out/ckptbench" "$@"
