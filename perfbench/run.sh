#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it with
# the arguments given. Run from the repository root:
#
#   bash perfbench/run.sh --workload run-ref --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and traces go under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory, so nothing is written
# outside it.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --trace-dir "$out" "$@"
