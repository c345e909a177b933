#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serve-1 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# span files stay under .bench_build/ so nothing outside the checkout is
# written. The build needs the repository's own go.mod one level up; without
# it the build fails and the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
