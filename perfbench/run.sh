#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# repository root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload validate-only --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the go command's temporary and
# config files all stay under .bench_build/ in the checkout, and nothing
# is fetched: the benchmark module depends only on the repository module,
# by a relative replace.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
