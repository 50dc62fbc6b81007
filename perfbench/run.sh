#!/usr/bin/env bash
# Builds the benchmark and the zkphired daemon from the enclosing source
# tree, then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload prove-vanilla --seed 1 --seconds 50 --trace 0
#
# Build outputs and the Go build cache live under .bench_build/ in the
# repository root (override with CARGO_TARGET_DIR), so nothing is written
# outside the checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
export GOPATH="$out/gopath" GOENV=off GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/zkphired" zkphire/cmd/zkphired)

exec "$out/perfbench" -zkphired "$out/zkphired" -workdir "$out/runs" "$@"
