#!/usr/bin/env bash
# Builds trustbench from this checkout and runs it with the given flags:
#
#   bash bench/run.sh --workload mixed --seed 1 --seconds 12 --trace 0
#
# Run it from the root of a checkout. Everything the build and the runs
# write (Go build cache, binaries, the reload workload's snapshot tree)
# stays under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/bin"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/bin/trustbench" ./cmd/trustbench)
exec "$out/bin/trustbench" "$@"
