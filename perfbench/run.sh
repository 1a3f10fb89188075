#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload query-mem --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, spill
# files, traces, count records) stays under .bench_build/perfbench in
# the checkout. The build fails, and so does this script, when the
# repository's module is not next to this directory.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
state="$root/.bench_build/perfbench"
mkdir -p "$state/tmp"

command -v go >/dev/null || export PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$state/gocache" GOTMPDIR="$state/tmp" GOPATH="$state/gopath" GOMODCACHE="$state/gopath/pkg/mod"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$state/perfbench" .)

PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT
cd "$root"
exec "$state/perfbench" --state "$state" "$@"
