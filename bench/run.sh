#!/usr/bin/env bash
# Builds mmbench from this checkout's sources and runs it. Run from the
# repository root, with mmbench's own flags:
#
#   bash bench/run.sh --workload interp-corpus --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (binary, Go build cache,
# checkpoint stores, traces, results.jsonl) stays under .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$out/bin/mmbench" ./cmd/mmbench) >&2
exec "$out/bin/mmbench" -dir "$out/mmbench" "$@"
