#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout's root.
# Everything the build leaves behind (binary, Go build cache, temporaries)
# goes under .bench_build/ in the checkout; nothing outside it is written.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/run.sh                 # all four workloads
#   bash bench/run.sh -aa 5           # two sets of five runs must agree
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its own counters
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# bench/ is a package of the program's module, so the build fails, and
# nothing runs, where the program's sources are missing.
cd "$root"
go build -o "$build/nectar-bench" ./bench
exec "$build/nectar-bench" "$@"
