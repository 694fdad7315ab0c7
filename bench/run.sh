#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from source inside
# the checkout (Go caches, temp files and the toolchain's telemetry counters
# under .bench_build, nothing under $HOME or /tmp) and hands every argument to
# it. The harness builds cmd/server itself, once, into the same directory.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/server" ]; then
	echo "bench: run from the repository root (no go.mod / cmd/server here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$out/bench" .
exec "$out/bench" "$@"
