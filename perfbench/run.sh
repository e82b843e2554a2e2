#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced run's spans go to
# .bench_build/ under the root. The last line of standard output is the
# JSON result; see perfbench/README.md.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Keep every file the go command writes (build cache, module cache,
# telemetry) inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out" GOWORK=off GOFLAGS= GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -out "$out/trace" "$@"
