#!/usr/bin/env bash
# Builds cmd/domserved and the load benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash loadbench/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, daemon
# data directories, trace files) lands under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/domserved" || ! -f "$root/loadbench/go.mod" ]]; then
	echo "loadbench: run from the repository root (need go.mod, cmd/domserved and loadbench/)" >&2
	exit 2
fi

out="$root/.bench_build/loadbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

go build -o "$out/domserved" ./cmd/domserved
(cd "$root/loadbench" && go build -o "$out/loadbench" .)

exec "$out/loadbench" -domserved "$out/domserved" -work "$out" -goroot "$(go env GOROOT)" "$@"
