#!/usr/bin/env bash
# Builds the benchmark from the checkout it lives in and runs it:
#
#   bash benchmark/run.sh --workload city-drain --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh --compare parent.jsonl change.jsonl
#
# Every build artifact and Go cache stays under .bench_build at the
# checkout root, so the script writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOPROXY=off \
	GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/benchmark" && go build -o "$build/utilbp-bench" .)
cd "$root"
exec "$build/utilbp-bench" "$@"
