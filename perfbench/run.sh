#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it.
#
#   bash perfbench/run.sh --workload read-fit --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write goes
# under .bench_build/ in that directory: the Go build cache, the binary, and
# the traced run's span files.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= \
	GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
