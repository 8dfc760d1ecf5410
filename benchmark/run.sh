#!/usr/bin/env bash
# Builds the benchmark program into .bench_build/ inside the checkout and runs
# it with the given arguments. The Go build cache lives there too, so a run
# reads and writes nothing outside the checkout; the first run in a fresh
# checkout therefore compiles the standard library once.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -root "$root" "$@"
