#!/usr/bin/env bash
# Builds the frame-level benchmark from source and runs it. Run it from the
# repository root, for example:
#
#   bash framebench/run.sh --workload stream-f32-b4 --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/framebench" && go build -o "$out/framebench" .)
exec "$out/framebench" "$@"
