#!/usr/bin/env bash
# Builds the portal benchmark from the checkout it is run in and runs it with
# the given arguments, from the root of the checkout:
#
#   bash portalbench/run.sh --workload pipeline --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail
bench="$(cd "$(dirname "$0")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$bench" && go build -o "$out/portalbench" .)
exec "$out/portalbench" "$@"
