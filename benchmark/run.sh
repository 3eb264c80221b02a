#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash benchmark/run.sh --workload set-uniform --seed 1 --seconds 15 --trace 0
# The Go build cache, the binary and every file a run writes stay under
# .bench_build/ in the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOENV=off GOWORK=off GOFLAGS=-mod=mod GOPROXY=off \
	GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
(cd "$root/benchmark" && go build -o "$out/benchmark" .) >&2
cd "$root"
exec "$out/benchmark" "$@"
