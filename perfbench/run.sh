#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache, temporary files, the binary and the
# pipeline workload's trace file.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
