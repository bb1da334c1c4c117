#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
#
#   bash e2ebench/run.sh --workload tcp-stide --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The benchmark is a module of its own that
# requires the repository's module through a relative replace directive, so
# it builds only inside a full checkout. Everything the build writes (the
# binary, the Go build cache) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
