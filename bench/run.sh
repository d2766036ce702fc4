#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ (build cache included, so nothing is written outside
# the checkout) and runs it with the caller's arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
# The go command also writes a module cache, an env file and telemetry
# counters under $HOME unless pointed elsewhere.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/kaskade-benchmark" .)
exec "$out/kaskade-benchmark" "$@"
