#!/bin/bash
# Builds the benchmark into the checkout's .bench_build/ and runs it from the
# checkout root. Everything the Go toolchain writes (build cache and its
# telemetry counters included) stays inside the checkout.
set -eu
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod
go build -o ../.bench_build/bench .
cd ..
exec .bench_build/bench "$@"
