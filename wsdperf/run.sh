#!/usr/bin/env bash
# Builds the wsdperf benchmark from this checkout's sources and runs it with
# the given arguments, from the root of the checkout:
#
#   bash wsdperf/run.sh --workload fleet-broadcast --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, temp files) and the WAL
# scratch of fleet rounds stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomod"
# The go command keeps per-user state (telemetry counters, go env -w) under
# the user config directory; point it inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/wsdperf" && go build -o "$out/wsdperf" .)
exec "$out/wsdperf" -workdir "$out" "$@"
