#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the benchmark's own
# directory. Everything the toolchain and the program write — build cache,
# binary, durable-engine files, traces, results — stays under
# benchmark/out, inside the checkout.
set -euo pipefail
cd "$(dirname "$0")"
cache="$PWD/out/.cache"
mkdir -p "$cache/tmp"
export GOCACHE="$cache/go-build" GOPATH="$cache/gopath" GOTMPDIR="$cache/tmp" XDG_CONFIG_HOME="$cache/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$cache/benchmark" .
exec "$cache/benchmark" "$@"
