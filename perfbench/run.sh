#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload zipf_direct --seed 1 --seconds 25 --trace 0
#
# Every build product, the Go build cache and the spans of traced runs
# go under .bench_build/ at the root of the checkout, so a run writes
# nothing outside it. It fails before running anything when the
# checkout lacks the repository's module (the benchmark builds the
# stack from source). The benchmark's own tests: cd perfbench && go test .
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/engine" ]; then
    echo "perfbench: $root holds no repro module to build" >&2
    exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
    GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS="-mod=readonly -buildvcs=false" GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -spans "$out/spans" "$@"
