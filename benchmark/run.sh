#!/bin/bash
# Builds the benchmark inside the checkout and runs it with the caller's
# arguments. Everything the build writes (binary, Go build cache, temporary
# files, the rounds' scratch logs) stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
go build -C "$root/benchmark" -o "$out/benchmark" .
exec "$out/benchmark" "$@"
