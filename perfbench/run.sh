#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in, then runs it with the
# given arguments. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload fleet-warm --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout. The benchmark module replaces the scaf module with the
# checkout root (see go.mod), so it builds the code under test.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
