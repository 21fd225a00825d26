#!/usr/bin/env bash
# Builds redistbench from the checkout's sources into .bench_build/ and runs
# it with the given arguments. Run it from the repository root:
#
#   bash tools/redistbench/bench.sh --workload dense64-ggp --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary, and every file the benchmark writes stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	go -C tools/redistbench build -o "$out/redistbench" .
exec "$out/redistbench" -out "$out" "$@"
