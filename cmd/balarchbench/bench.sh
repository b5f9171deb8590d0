#!/usr/bin/env bash
# Builds balarchbench from source and runs it with the given flags. Run it
# from the repository root:
#
#   bash cmd/balarchbench/bench.sh -workload analyze-flat -seed 7 -seconds 16 -trace 0
#
# Every artifact of the build and the run (Go build cache, binaries, store
# directories, results) stays under .bench_build/ in the repository.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/balarchd ]]; then
	echo "bench.sh: run from the balarch repository root" >&2
	exit 2
fi
build="$(pwd -P)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C cmd/balarchbench build -o "$build/bin/balarchbench" .
exec "$build/bin/balarchbench" "$@"
