#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run from the
# root of the checkout: sh perfbench/run.sh --workload gemm-distinct.
# Every build output, Go cache, temporary file, journal and span file
# stays under .bench_build in the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out" "$@"
