#!/usr/bin/env bash
# Builds `ropuf` and the benchmark from source into .bench_build/ and runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload auth --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache included). Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ropuf" ]; then
	echo "run.sh: run from the repository root: go.mod and cmd/ropuf not found in $root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off

(cd "$root" && go build -o "$build/ropuf" ./cmd/ropuf) >&2
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -ropuf "$build/ropuf" -work "$build/work" -trace-dir "$build/trace" "$@"
