#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload kv-tcp --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Build outputs (binary, Go build
# cache) stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench/ here)" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
