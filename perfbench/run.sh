#!/usr/bin/env bash
# Builds the benchmark program from the sources of the checkout it is run
# from (the current directory must be the repository root) and runs it with
# the given arguments:
#
#   bash perfbench/run.sh --workload suite-hbbmc --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary, the run's scratch files and its span
# dumps all live under .bench_build/, so nothing is written outside the
# checkout. GOPROXY=off and GOTOOLCHAIN=local keep the build offline.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
