#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs one workload. Run it
# from the root of the repository; every build and run artifact (Go build
# cache, binary, store copies, spans) stays under .bench_build/.
#
#   bash simbench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
cd "$root/simbench"
# Stamp the commit into the binary where the checkout is a usable git
# repository; elsewhere build without it and the run record says unknown.
go build -o "$out/bin/simbench" . 2>/dev/null || go build -buildvcs=false -o "$out/bin/simbench" .
cd "$root"
exec "$out/bin/simbench" "$@"
