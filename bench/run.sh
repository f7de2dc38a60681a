#!/usr/bin/env bash
# Builds padcbench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload paper4 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 2 -json out.json          # every workload
#   bash bench/run.sh compare -base a.json -new b.json
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, and the sweep
# service's temporary data directories.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=

(cd bench && go build -o "$out/padcbench" ./padcbench)
exec "$out/padcbench" "$@"
