#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given
# arguments, e.g. from the repository root:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 3 --seconds 12 --trace 0
#   bash perfbench/run.sh compare baseline-results/ change-results/
#
# The binary, the Go build cache and every result file stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
