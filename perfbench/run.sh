#!/usr/bin/env bash
# Builds the benchmark against the checkout it is run from and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the runs write
# (Go build cache, binary, traces, model-cost records) goes under the
# checkout's build directory, $CARGO_TARGET_DIR or .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench/go.mod here)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build = /* ]] || build="$root/$build"
mkdir -p "$build/perfbench"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTELEMETRY=off GOFLAGS=-mod=mod
export GOPROXY=off GOWORK=off GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" --out "$build/perfbench" "$@"
