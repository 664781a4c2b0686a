#!/usr/bin/env bash
# Builds vpbench from source and runs it with the given arguments.
#
# Run from the repository root:
#
#   bash vpbench/run.sh --workload sweep-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root: the Go build cache, temporary files, the binary, and the
# result files (.bench_build/out). No network is used: the module has no
# dependencies outside this repository.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/vpbench/go.mod" ]]; then
	echo "vpbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/vpbench" && go build -o "$build/vpbench" .)
exec "$build/vpbench" "$@"
