#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given. Compiler cache, temporary files, the toolchain's own config and
# telemetry, and the binary all stay under .bench_build/, so nothing outside
# the checkout is read or written.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "benchmark/run.sh: run from the repository root (no go.mod and internal/ here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/bin"
GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/go-config" GOTOOLCHAIN=local \
	go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
