#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the harness from source inside the
# checkout and runs it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the Go toolchain writes goes under .bench_build in the
# checkout — build cache, module cache, temporary files, the toolchain's
# own counters — so a run writes nothing outside it. In a directory without the repository's sources the build
# fails and this script exits non-zero without printing a result.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$bench" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" "$@"
