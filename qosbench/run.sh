#!/usr/bin/env bash
# Builds qosbench from the source in this checkout and runs it, passing
# every argument through, e.g.
#
#   bash qosbench/run.sh --workload qosd-durable --seed 1 --seconds 40 --trace 0
#
# Run it from the root of the repository. Everything it writes (the Go
# build cache, the binary, durable data dirs) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local
(cd "$root/qosbench" && go build -o "$build/qosbench" .)
exec "$build/qosbench" --build-dir "$build" "$@"
