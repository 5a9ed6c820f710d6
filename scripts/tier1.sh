#!/usr/bin/env bash
# Tier-1 pre-merge gate: release build, full workspace test suite (the test
# profile runs with overflow-checks on), clippy and rustdoc with warnings
# denied (so no doc link dangles), a run of every example, then a
# telemetry smoke run — generate and train with --trace-json and validate
# both traces with trace_check (every line parses, spans well-nested, all
# instrumented phases present, and the training spans cover at least 90%
# of the run's wall time). The quick committed results must reproduce
# byte for byte from the command on their first line
# (scripts/reproduce.sh --quick).
# The hard slowdown check is the end-to-end benchmark's comparator test,
# compare::tests::a_thirty_percent_tail_slowdown_is_flagged (`compare` must
# flag a 1.3x tail slowdown), and the approx recall gate is
# tests/index.rs's paper_scale_recall_at_nprobe_16_stays_high_on_a_d32_model
# (recall@10 >= 0.95 while scanning < 30% of the catalog); the workspace
# test run prints both by name.
# Run from the repository root. Any failure fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test --workspace
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Every example runs to completion: `cargo test` builds them but runs none.
cargo build --release --examples
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  echo "tier1: example $name"
  ./target/release/examples/"$name" > /dev/null \
    || { echo "tier1: example $name FAILED"; exit 1; }
done

# Committed results reproduce: a generator change fails here until its
# table is regenerated.
cargo build --release -p logirec-bench --bin table1 --bin fig3
scripts/reproduce.sh --quick

smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
./target/release/logirec generate --dataset ciao --scale tiny --seed 7 \
  --out "$smoke/data" --trace-json "$smoke/generate.jsonl"
summary_out=$(./target/release/logirec train --data "$smoke/data" --model "$smoke/m.logirec" \
  --epochs 5 --dim 8 --trace-json "$smoke/train.jsonl" --metrics-summary)
echo "$summary_out"
case "$summary_out" in
  *"% coverage)"*) ;;
  *) echo "tier1: telemetry smoke FAILED (--metrics-summary printed no span coverage)"; exit 1 ;;
esac
./target/release/trace_check "$smoke/generate.jsonl" --require-kinds synth,dataset
# The training trace must also attribute at least 90% of the run's wall
# time to named spans — un-instrumented hot-path time fails the gate.
./target/release/trace_check "$smoke/train.jsonl" \
  --require-kinds train,epoch,batch,forward,loss,backward,mining,checkpoint,eval --min-spans 10 \
  --min-coverage 0.9

# Parallel-training determinism smoke: the sharded gradient path promises
# bit-identical models for every --train-threads value. Train twice and
# byte-compare the serialized models.
./target/release/logirec train --data "$smoke/data" --model "$smoke/m1.logirec" \
  --epochs 3 --dim 8 --train-threads 1
./target/release/logirec train --data "$smoke/data" --model "$smoke/m2.logirec" \
  --epochs 3 --dim 8 --train-threads 2
cmp "$smoke/m1.logirec" "$smoke/m2.logirec" \
  || { echo "tier1: train-threads determinism smoke FAILED (models differ)"; exit 1; }
# The tiny catalog is below the row count at which the row-parallel passes
# split across threads (parallel::for_each_row), so repeat the byte-compare
# on the paper-scale catalog, where every pass splits: one epoch at d = 8.
./target/release/logirec generate --dataset ciao --scale paper --seed 7 --out "$smoke/paper"
./target/release/logirec train --data "$smoke/paper" --model "$smoke/p1.logirec" \
  --epochs 1 --dim 8 --train-threads 1
./target/release/logirec train --data "$smoke/paper" --model "$smoke/p2.logirec" \
  --epochs 1 --dim 8 --train-threads 2
cmp "$smoke/p1.logirec" "$smoke/p2.logirec" \
  || { echo "tier1: paper-scale train-threads determinism smoke FAILED (models differ)"; exit 1; }
# The same byte-compare at f32: the single-precision step splits its rows
# across threads too, through its own instantiation of every kernel.
./target/release/logirec train --data "$smoke/paper" --model "$smoke/p1f32.logirec" \
  --epochs 1 --dim 8 --train-threads 1 --precision f32
./target/release/logirec train --data "$smoke/paper" --model "$smoke/p2f32.logirec" \
  --epochs 1 --dim 8 --train-threads 2 --precision f32
cmp "$smoke/p1f32.logirec" "$smoke/p2f32.logirec" \
  || { echo "tier1: paper-scale f32 train-threads determinism smoke FAILED (models differ)"; exit 1; }

# Serving smoke: start `logirec serve` with a trace, issue one healthy
# request (must be exact) and one deadline-starved request (must degrade to
# the popularity fallback, never an error), shut the server down cleanly,
# then validate the serve trace (serve/request/score/fold_in spans
# present).
# Bind port 0 and read the chosen address back from the banner — no fixed
# port to collide with.
./target/release/logirec serve --data "$smoke/data" --model "$smoke/m.logirec" \
  --addr "127.0.0.1:0" --trace-json "$smoke/serve.jsonl" > "$smoke/serve.log" 2>&1 &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
  serve_addr=$(grep -o '127\.0\.0\.1:[0-9]*' "$smoke/serve.log" | head -n1 || true)
  [ -n "$serve_addr" ] && break
  sleep 0.1
done
[ -n "$serve_addr" ] \
  || { echo "tier1: serve smoke FAILED (server never came up)"; exit 1; }
exact_out=$(./target/release/logirec request --addr "$serve_addr" \
  --user 1 --k 5 --retries 40)
echo "$exact_out"
case "$exact_out" in
  *"served_by: exact"*) ;;
  *) echo "tier1: serve smoke FAILED (healthy request not served exact)"; exit 1 ;;
esac
starved_out=$(./target/release/logirec request --addr "$serve_addr" \
  --user 1 --k 5 --deadline-ms 0)
echo "$starved_out"
case "$starved_out" in
  *"served_by: fallback (deadline)"*) ;;
  *) echo "tier1: serve smoke FAILED (starved request did not degrade)"; exit 1 ;;
esac
# Metrics scrape smoke: the exposition must carry the request counters and
# the exact-path latency summary the two requests above produced, and
# (this server records into its enabled trace registry) name each metric
# family exactly once.
metrics_out=$(./target/release/logirec metrics --addr "$serve_addr")
for series in \
  "# TYPE logirec_serve_requests_total counter" \
  "logirec_serve_requests_total 2" \
  "logirec_serve_exact_total 1" \
  "logirec_serve_fallback_total 1" \
  'logirec_serve_exact_latency_us{quantile="0.95"}'; do
  case "$metrics_out" in
    *"$series"*) ;;
    *) echo "tier1: metrics scrape FAILED (missing: $series)"; echo "$metrics_out"; exit 1 ;;
  esac
done
dup_families=$(echo "$metrics_out" | grep '^# TYPE ' | sort | uniq -d)
[ -z "$dup_families" ] \
  || { echo "tier1: metrics scrape FAILED (duplicate families: $dup_families)"; exit 1; }
# Streaming fold-in smoke: a request for an unknown (not yet folded-in)
# user degrades to the popularity fallback; folding the user in from a few
# positives publishes the grown snapshot as a new model version off the
# request path; the folded user is then immediately served exact.
unknown_out=$(./target/release/logirec request --addr "$serve_addr" --user 60 --k 5)
echo "$unknown_out"
case "$unknown_out" in
  *"served_by: fallback (unknown_user)"*) ;;
  *) echo "tier1: fold-in smoke FAILED (unknown user did not degrade)"; exit 1 ;;
esac
fold_out=$(./target/release/logirec request --addr "$serve_addr" --fold-in 1,4,9)
echo "$fold_out"
case "$fold_out" in
  *"fold_in: swapped  entity: user  new_id: 60  model_version: 2"*) ;;
  *) echo "tier1: fold-in smoke FAILED (fold-in not swapped)"; exit 1 ;;
esac
folded_out=$(./target/release/logirec request --addr "$serve_addr" --user 60 --k 5)
echo "$folded_out"
case "$folded_out" in
  *"served_by: exact"*) ;;
  *) echo "tier1: fold-in smoke FAILED (folded user not served exact)"; exit 1 ;;
esac
# The fold-in's latency is in the exposition, and its span in the trace.
metrics_out=$(./target/release/logirec metrics --addr "$serve_addr")
for series in \
  "# TYPE logirec_serve_fold_in_latency_us summary" \
  "logirec_serve_fold_in_latency_us_count 1"; do
  case "$metrics_out" in
    *"$series"*) ;;
    *) echo "tier1: fold-in metrics scrape FAILED (missing: $series)"; echo "$metrics_out"; exit 1 ;;
  esac
done
./target/release/logirec request --addr "$serve_addr" --shutdown
wait "$serve_pid" \
  || { echo "tier1: serve smoke FAILED (server did not exit cleanly)"; exit 1; }
./target/release/trace_check "$smoke/serve.jsonl" --require-kinds serve,request,score,fold_in

# Approx-serving smoke: a live server carrying the clustered retrieval
# index with --approx must tag every healthy request served_by: approx.
# Two signups then fold in as versions 2 and 3; user fold-ins keep the
# index and cluster-ordered scan table of the snapshot they grow, so the
# second folded user is answered by the index behind a chain of two
# published snapshots. An item fold-in (version 4) rebuilds the index and
# its table, and that user is still answered by the rebuilt index.
./target/release/logirec serve --data "$smoke/data" --model "$smoke/m.logirec" \
  --addr "127.0.0.1:0" --approx > "$smoke/approx.log" 2>&1 &
approx_pid=$!
approx_addr=""
for _ in $(seq 1 100); do
  approx_addr=$(grep -o '127\.0\.0\.1:[0-9]*' "$smoke/approx.log" | head -n1 || true)
  [ -n "$approx_addr" ] && break
  sleep 0.1
done
[ -n "$approx_addr" ] \
  || { echo "tier1: approx smoke FAILED (indexed server never came up)"; exit 1; }
approx_out=$(./target/release/logirec request --addr "$approx_addr" \
  --user 1 --k 5 --retries 40)
echo "$approx_out"
case "$approx_out" in
  *"served_by: approx (requested)"*) ;;
  *) echo "tier1: approx smoke FAILED (request not served by the index)"; exit 1 ;;
esac
for signup in "1,4,9 60 2" "2,5,8 61 3"; do
  read -r positives new_id version <<< "$signup"
  fold_out=$(./target/release/logirec request --addr "$approx_addr" --fold-in "$positives")
  echo "$fold_out"
  case "$fold_out" in
    *"fold_in: swapped  entity: user  new_id: $new_id  model_version: $version"*) ;;
    *) echo "tier1: approx fold-in smoke FAILED (user $new_id not swapped as v$version)"; exit 1 ;;
  esac
done
folded_out=$(./target/release/logirec request --addr "$approx_addr" --user 61 --k 5)
echo "$folded_out"
case "$folded_out" in
  *"served_by: approx (requested)"*) ;;
  *) echo "tier1: approx fold-in smoke FAILED (folded user not served by the index)"; exit 1 ;;
esac
fold_out=$(./target/release/logirec request --addr "$approx_addr" --fold-in 1,4,9 --fold-in-item)
echo "$fold_out"
case "$fold_out" in
  *"fold_in: swapped  entity: item  new_id: 100  model_version: 4"*) ;;
  *) echo "tier1: approx fold-in smoke FAILED (item 100 not swapped as v4)"; exit 1 ;;
esac
folded_out=$(./target/release/logirec request --addr "$approx_addr" --user 61 --k 5)
echo "$folded_out"
case "$folded_out" in
  *"served_by: approx (requested)"*) ;;
  *) echo "tier1: approx fold-in smoke FAILED (read after item fold-in not served by the index)"; exit 1 ;;
esac
./target/release/logirec request --addr "$approx_addr" --shutdown
wait "$approx_pid" \
  || { echo "tier1: approx smoke FAILED (indexed server did not exit cleanly)"; exit 1; }

# Single-precision smoke: generate → train 1 epoch → evaluate, all with
# --precision f32. Fails on divergence (trainer exit code) or any NaN
# leaking into the reported metrics.
./target/release/logirec train --data "$smoke/data" --model "$smoke/m32.logirec" \
  --epochs 1 --dim 8 --precision f32
f32_out=$(./target/release/logirec evaluate --data "$smoke/data" \
  --model "$smoke/m32.logirec" --precision f32)
echo "$f32_out"
case "$f32_out" in
  *NaN*|*nan*) echo "tier1: f32 smoke FAILED (NaN in metrics)"; exit 1 ;;
esac

echo "tier1: all green"
