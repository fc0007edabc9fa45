#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root; the build cache, the binary, WAL scratch
# files and span dumps all stay under .bench_build/ there.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local
go -C jecbbench build -o "$build/jecbbench" .
exec "$build/jecbbench" "$@"
