#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (build cache included, so nothing is written outside it) and
# runs it with the arguments given. BENCHMARK.json names this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Everything the go command writes — build cache, temporaries, module
# cache, telemetry counters — stays under .bench_build; nothing is fetched.
(cd "$here" && GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
	go build -buildvcs=false -o "$build/tunio-bench" .)
exec "$build/tunio-bench" -out "$here/out" "$@"
