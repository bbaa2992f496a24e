#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload market-inproc --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs and the Go build cache live in
# .bench_build so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod required)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/home"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/home"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off
export GOTELEMETRY=off

bin="$build/perfbench"
(cd "$root/perfbench" && go build -o "$bin" .) >&2
exec "$bin" "$@"
