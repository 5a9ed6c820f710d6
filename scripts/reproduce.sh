#!/usr/bin/env bash
# Reproduces committed experiment results: each results file's first line
# is the command that regenerated it. This script reruns that command with
# the release binary in a temporary directory and byte-compares the output
# with the committed file.
#
#   scripts/reproduce.sh --quick   # results/table1.txt and results/fig3.txt
#
# --quick covers the results that regenerate in seconds. Build the binaries
# first: cargo build --release -p logirec-bench --bin table1 --bin fig3
# Run from anywhere; any difference fails with the diff.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

case "${1:-}" in
  --quick) files=(results/table1.txt results/fig3.txt) ;;
  *) echo "usage: scripts/reproduce.sh --quick" >&2; exit 2 ;;
esac

prefix='cargo run --release -p logirec-bench --bin '
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
status=0
for file in "${files[@]}"; do
  IFS= read -r command < "$file"
  case "$command" in
    "$prefix"*) ;;
    *) echo "reproduce: $file: first line is not a logirec-bench command: $command"; exit 1 ;;
  esac
  rest=${command#"$prefix"}
  name=${rest%% *}
  args=${rest#"$name"}
  args=${args# -- }
  dir="$work/$name"
  mkdir -p "$dir"
  # The header quotes its arguments for a shell, so let the shell split them.
  (cd "$dir" && eval "\"$root/target/release/$name\" $args") > "$dir/stdout"
  if cmp -s "$dir/results/$name.txt" "$file"; then
    echo "reproduce: $file reproduces"
  else
    echo "reproduce: $file differs from a rerun of: $command"
    diff "$file" "$dir/results/$name.txt" || true
    status=1
  fi
done
exit "$status"
