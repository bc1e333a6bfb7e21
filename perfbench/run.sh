#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload stack-null --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build and module caches, the go
# command's config and telemetry files) stays under .bench_build in the
# current directory, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
