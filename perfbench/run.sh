#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload bulk-get --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs, the Go build cache and the
# benchmark's own output files all stay under $CARGO_TARGET_DIR
# (.bench_build by default) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
export PERFBENCH_OUT=$out/perfbench-out
exec "$out/perfbench" "$@"
