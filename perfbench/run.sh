#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments are passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload fuse-rag --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in
# the working directory, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-config" "$out/go-path"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/go-config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
