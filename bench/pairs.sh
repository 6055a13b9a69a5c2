#!/usr/bin/env bash
# Runs interleaved pairs of untraced runs of two checkouts of this
# repository and judges them with `mmbench compare`. Pair i runs the old
# checkout first when i is even and the new one first when i is odd, so
# a host whose speed drifts while they run slows both sides alike.
#
#   bash bench/pairs.sh OLD_CHECKOUT NEW_CHECKOUT WORKLOAD [PAIRS [SEED]]
#
# PAIRS defaults to 10, the fewest compare judges; SEED defaults to 2,
# the held-out seed. Every run measures 20 s, BENCHMARK.json's
# run_seconds. Each checkout builds its own mmbench; the two results
# files land in .bench_build/pairs/ under the current directory.
set -euo pipefail
old=$(cd "$1" && pwd)
new=$(cd "$2" && pwd)
workload=$3 pairs=${4:-10} seed=${5:-2}
out="$(pwd)/.bench_build/pairs"
mkdir -p "$out"
rm -f "$out/old.jsonl" "$out/new.jsonl"
for ((i = 0; i < pairs; i++)); do
  sides="old new"
  if ((i % 2 == 1)); then sides="new old"; fi
  for side in $sides; do
    dir=$old
    if [[ $side == new ]]; then dir=$new; fi
    (cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 20 --trace 0 -out "$out/$side.jsonl" >/dev/null)
  done
done
"$new/.bench_build/bin/mmbench" compare -benchmark "$new/BENCHMARK.json" "$out/old.jsonl" "$out/new.jsonl"
