#!/usr/bin/env bash
# Entry point named by BENCHMARK.json:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark (its own Go module, so that it is a package of
# its own with its own build file) and runs it. Everything the Go
# toolchain writes goes under .bench_build/ in the checkout, never to
# $HOME or /tmp, so the run reads and writes only inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$here" -o "$build/bin/bench" .
exec "$build/bin/bench" -root "$root" "$@"
