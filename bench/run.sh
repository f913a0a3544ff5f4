#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh -seed 1 -out run.json
#
# Build products, the Go build cache and the toolchain's own files stay
# under .bench_build/ in the working directory; nothing is downloaded.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local
export GOPROXY=off GOSUMDB=off GOWORK=off CGO_ENABLED=0

go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
