#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.:
#
#   bash e2ebench/run.sh --workload skip-zipf --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# benchmark's temporary files stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export CARGO_TARGET_DIR="$out"
# Keep the Go toolchain's caches and config writes inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOWORK=off
unset GOFLAGS
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
