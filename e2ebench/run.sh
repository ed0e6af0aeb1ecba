#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# repository root:
#
#   bash e2ebench/run.sh --workload probe-d2 --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the module cache, the toolchain's config directory and
# the binary all live under .bench_build/ in the current directory, so
# building and running write nowhere else.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
go -C e2ebench build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
