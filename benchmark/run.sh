#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash benchmark/run.sh --workload pair_read_miss --seed 1 --seconds 18 --trace 0
#   bash benchmark/run.sh                  # every workload, both passes
#
# Everything the build writes stays under benchmark/.build: the binary,
# the go build cache, and the go command's own configuration directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build"

(
    cd "$here"
    GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" \
        GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local \
        go build -o "$build/mobirep-benchmark" .
) >&2

cd "$here/.."
exec "$build/mobirep-benchmark" "$@"
