#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g.  bash perfbench/run.sh --workload wing-steady --seed 42 --seconds 25 --trace 0
# The binary and every Go cache or temporary file stay under the build
# directory inside the checkout ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
