#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Keeps everything the Go toolchain
# writes (build cache, temp files, telemetry) inside the checkout, builds
# the benchmark program from source and execs it with the driver's
# arguments, so the program is this script's process and receives its
# signals directly.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp" "$build/bin"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
unset XDG_CACHE_HOME XDG_CONFIG_HOME
go build -C "$root/bench" -o "$build/bin/bench" .
cd "$root/bench"
exec "$build/bin/bench" "$@"
