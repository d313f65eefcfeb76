#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it with the
# given arguments from the checkout root, for example:
#
#   bash benchmark/run.sh --workload analytic --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, temporary build files and the traced
# pass's Chrome traces all stay under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/ysmart-benchmark" .)
cd "$root"
exec "$build/ysmart-benchmark" --out "$build" "$@"
