#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run write stays inside the checkout: the Go build cache and the
# binary under .bench_build/, traces under benchmark/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
cd "$here"
go build -o "$build/mcdbr-benchmark" . >&2
exec "$build/mcdbr-benchmark" "$@"
