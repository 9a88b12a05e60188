#!/usr/bin/env bash
# Builds remapd-bench from this checkout's source and runs one workload:
#
#   bash cmd/remapd-bench/run.sh --workload train-grid --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, the Go
# config directory and the traced runs' span files all stay under
# .bench_build/ in that directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/remapd-bench ]]; then
	echo "run.sh: run from the repository root (no go.mod or cmd/remapd-bench here)" >&2
	exit 1
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/remapd-bench" ./cmd/remapd-bench
exec "$out/remapd-bench" "$@"
