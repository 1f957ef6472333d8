#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs one workload:
#
#   bash e2ebench/run.sh --workload engine-grid --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# run's scratch files (journals, span dumps) stay under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout. The build needs the module at
# the root (e2ebench/go.mod replaces noisypull with ../), so outside a full
# checkout it fails and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
# Keep every file the go command writes (build cache, temp files, module
# cache, telemetry counters) inside the checkout, and never fetch anything.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$(dirname "$0")" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --scratch "$out/e2ebench-run" "$@"
