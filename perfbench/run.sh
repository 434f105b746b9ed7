#!/usr/bin/env bash
# Builds snserve from the tree under test and the perfbench binary, then
# runs perfbench with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload classify-sift --seed 1 --seconds 50 --trace 0
#
# Everything it writes stays under .bench_build/ in the current
# directory: the binaries, the Go build cache (so a fresh checkout
# compiles once, offline), snapshots, server logs and span traces.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/snserve ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/snserve here)" >&2
	exit 1
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go build -o "$out/snserve" ./cmd/snserve
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --server "$out/snserve" --work "$out/run" "$@"
