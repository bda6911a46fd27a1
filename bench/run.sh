#!/usr/bin/env bash
# Builds and runs the serving benchmark from the repository root:
#
#   bash bench/run.sh --workload phase-n96 --seed 7 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the Go tool's own config and
# telemetry files stay in .bench_build/ under the repository root, and no
# module is fetched from the network.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" -root "$root" "$@"
