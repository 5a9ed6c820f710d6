#!/usr/bin/env bash
# Alternating benchmark pairs between two versions of this repository, then
# the benchmark's own comparison of them.
#
#   scripts/bench_pairs.sh PARENT CHANGE WORKLOAD... [--pairs N] [--seconds S]
#
# PARENT and CHANGE are each a directory holding a checkout, or a git
# revision of this repository, exported with `git archive` (committed files
# only; Cargo.lock is not tracked, and cargo writes it on the first build).
# Each side is built once, in its own CARGO_TARGET_DIR, so each trains and
# keeps its own served model. For every seed 1..N (default 10) and every
# WORKLOAD (train-paper, serve-exact, serve-approx, serve-foldin), both
# sides run back to back with BENCHMARK.json's command, the side that runs
# first alternating with the seed, each appending its report line (`--out`)
# to parent.jsonl or change.jsonl. `--seconds` (default 20, the
# benchmark's run length) is passed to every run. Then
# `logirec-benchmark compare parent.jsonl change.jsonl --bench BENCHMARK.json`
# (CHANGE's build and BENCHMARK.json) prints the verdicts, and the script
# exits with its code.
#
# Everything goes under a new temporary directory, which the script prints
# and leaves in place.
set -euo pipefail

usage() {
  echo "usage: scripts/bench_pairs.sh PARENT CHANGE WORKLOAD... [--pairs N] [--seconds S]" >&2
  exit 2
}

repo=$(cd "$(dirname "$0")/.." && pwd)
pairs=10
seconds=20
positional=()
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
    --seconds) [ $# -ge 2 ] || usage; seconds=$2; shift 2 ;;
    --*) usage ;;
    *) positional+=("$1"); shift ;;
  esac
done
[ ${#positional[@]} -ge 3 ] || usage
parent=${positional[0]}
change=${positional[1]}
workloads=("${positional[@]:2}")

work=$(mktemp -d)
echo "bench_pairs: work directory $work"

# Puts side $1's sources at $work/$1/src (a directory is used in place) and
# builds its benchmark in $work/$1/target.
prepare() {
  local side=$1 rev=$2 src
  if [ -d "$rev" ]; then
    src=$(cd "$rev" && pwd)
  else
    src="$work/$side/src"
    mkdir -p "$src"
    git -C "$repo" archive "$rev" | tar -x -C "$src"
  fi
  echo "$src" > "$work/$side/src.path"
  echo "bench_pairs: building $side ($rev) from $src"
  (cd "$src" && CARGO_TARGET_DIR="$work/$side/target" cargo build --release -q -p logirec-benchmark)
}

# Runs one workload and seed on side $1, appending its report line.
run() {
  local side=$1 workload=$2 seed=$3 src
  src=$(cat "$work/$side/src.path")
  echo "bench_pairs: $side $workload seed $seed"
  (cd "$src" && CARGO_TARGET_DIR="$work/$side/target" \
    cargo run --release -q -p logirec-benchmark -- --workload "$workload" \
      --seed "$seed" --seconds "$seconds" --out "$work/$side.jsonl")
}

mkdir -p "$work/parent" "$work/change"
prepare parent "$parent"
prepare change "$change"
for seed in $(seq 1 "$pairs"); do
  for workload in "${workloads[@]}"; do
    if [ $((seed % 2)) -eq 1 ]; then
      run parent "$workload" "$seed"
      run change "$workload" "$seed"
    else
      run change "$workload" "$seed"
      run parent "$workload" "$seed"
    fi
  done
done

change_src=$(cat "$work/change/src.path")
"$work/change/target/release/logirec-benchmark" compare \
  "$work/parent.jsonl" "$work/change.jsonl" --bench "$change_src/BENCHMARK.json"
