#!/usr/bin/env bash
# Builds the route-service benchmark from this checkout and runs it,
# keeping the build cache, the binary and every file a run writes under
# .bench_build/ at the checkout root.
#
#   bash routebench/run.sh --workload storm --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build/routebench"
mkdir -p "$out/tmp"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
(cd routebench && go build -o "$out/routebench" .)
exec "$out/routebench" --workdir "$out/work" "$@"
