#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, stores, traces) stays under .bench_build/ in
# the current directory; CARGO_TARGET_DIR, when set, names that directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
unset LLVM_INTERP_TIER
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
