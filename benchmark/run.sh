#!/usr/bin/env bash
# Builds the benchmark and ticsgate from source, then runs the benchmark
# with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload device-mix --seed 1 --seconds 15 --trace 0
#
# Everything the builds and the run write (Go build cache, binaries,
# temporary state, trace files) stays under $CARGO_TARGET_DIR, default
# .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS= TMPDIR="$out/tmp"
(cd benchmark && go build -o "$out/benchmark" . && go build -o "$out/ticsgate" repro/cmd/ticsgate) >&2

exec "$out/benchmark" -ticsgate "$out/ticsgate" -out "$out" "$@"
