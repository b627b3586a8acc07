#!/bin/sh
# Builds the benchmark from source and runs it from the checkout root.
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ inside the checkout.
set -e
cd "$(dirname "$0")/.."
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C bench -o "$build/ssjbench" .
exec "$build/ssjbench" "$@"
