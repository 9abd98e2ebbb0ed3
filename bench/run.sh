#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark from source inside
# the checkout, then run it with the driver's arguments.
#
# Everything the build and the run write stays under .bench_build in the
# checkout. Run from the repository root:
#
#   bash bench/run.sh --workload single_t257 --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# The Go tool is kept inside the checkout too: build cache, module
# cache and its own configuration directory, with the network off (the
# only dependency is the repository itself).
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=-modcacherw XDG_CONFIG_HOME="$build/config"

# bench/ is a module of its own that replaces `athena` with the
# repository root, so this fails (and nothing is printed) where the
# repository's sources are missing.
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" -workdir "$build" "$@"
