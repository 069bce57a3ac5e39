#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sketch --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or leaves behind
# goes under .bench_build/ there: the Go build cache, the toolchain's
# temporary and configuration files, the binary, and the run directories
# and records of the benchmark. It uses no network and no prebuilt
# binaries. A failed build exits nonzero before anything runs.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
