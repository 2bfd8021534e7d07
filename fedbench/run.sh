#!/usr/bin/env bash
# Builds the federation benchmark from this checkout's sources and runs
# it; every argument is passed through:
#
#   bash fedbench/run.sh --workload central-bulk --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. The Go build cache, the
# binary and the traced runs' span files all stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" HOME="$out/home"
export GOTOOLCHAIN=local
(cd "$root/fedbench" && go build -o "$out/fedbench" .)
exec "$out/fedbench" "$@"
