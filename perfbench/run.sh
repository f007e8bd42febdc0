#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it
# with the given flags. Run from the repository root:
#
#	bash perfbench/run.sh --workload engine_heavy --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
