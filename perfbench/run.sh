#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload commit_durable --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory: the Go build cache, the binary, the WAL temp dirs, the span
# dumps and the CPU profiles.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
