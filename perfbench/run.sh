#!/usr/bin/env bash
# Builds the benchmark and the tibfit-serve daemon from the source tree it
# is run in, then runs one workload:
#
#   bash perfbench/run.sh --workload paper-campaign --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or caches lands in
# .bench_build/ under that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off

go build -o "$build/tibfit-serve" ./cmd/tibfit-serve >&2
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" -serve-bin "$build/tibfit-serve" -out "$build" "$@"
