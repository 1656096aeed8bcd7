#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, passing the benchmark's flags through:
#
#   bash perfbench/run.sh --workload compute --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write — the Go build cache included —
# stays under .bench_build/perfbench. Without the repository around it
# the build fails, and so does the script.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
