#!/usr/bin/env bash
# Local CI gate: formatting, lints, then the tier-1 build + test pass.
# Everything runs --offline; the workspace has no network dependencies
# (rand/proptest/criterion are vendored path crates under shims/).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> rustdoc: cargo doc --workspace -D warnings"
# Broken or private intra-doc links fail here, and so does an undocumented
# public item (every crate sets `warn(missing_docs)`), including the fields
# that `counter_set!` generates.
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline

echo "==> benches compile: cargo bench --no-run"
cargo bench --workspace --no-run --offline

echo "==> nomloc-net and nomloc-faults build"
cargo build --offline -p nomloc-net -p nomloc-faults

echo "==> tier-1 gate: cargo build --release && cargo test -q"
cargo build --release --offline
cargo test -q --offline

echo "==> full workspace tests"
cargo test -q --workspace --offline

echo "==> vector-kernel bit-identity tests, optimized build"
# Unoptimized test builds do not vectorize, so there the AVX2 and baseline
# builds of the PDP transform's kernels run the same scalar code. The
# release build is the one whose packed loops must match bit for bit.
cargo test -q --release --offline -p nomloc-dsp
cargo test -q --release --offline -p nomloc-net --lib crc32

echo "==> vector-kernel codegen: AVX2 and PCLMULQDQ builds in the release binary"
bash scripts/asm_check.sh

echo "==> loopback serving smoke test (daemon + loadgen over 127.0.0.1)"
cargo test -q --offline --test net_loopback

echo "==> chaos smoke: fault-injected serving contract over 127.0.0.1"
cargo run --release -p nomloc-cli --bin nomloc --offline -- \
  chaos --seed 7 --requests 200

echo "==> session chaos smoke: 1% faults over 3 interleaved sessions, seeds 11-15"
# The per-session replay inside the verifier is a cross-wire detector:
# any reply carrying another session's track fails the run. Several seeds,
# because a race between a loop's solve and a batcher's shows up only
# under some interleavings. The last run kills a batcher every 5th batch,
# so its batch goes back through the queue's `requeue_front` and must
# still replay bit-identically.
for args in "--seed 11 --rate 0.01" "--seed 12 --rate 0.01" "--seed 13 --rate 0.01" \
  "--seed 14 --rate 0.01" "--seed 15 --rate 0.01" "--seed 3 --kill-every 5"; do
  # shellcheck disable=SC2086 # $args is a list of flags
  sc_out="$(cargo run --release -q -p nomloc-cli --bin nomloc --offline -- \
    chaos $args --requests 300 --sessions 3)"
  echo "    $args: $(echo "$sc_out" | grep -E "sessions:")"
  if ! echo "$sc_out" | grep -q "replay-verified"; then
    echo "$sc_out" >&2
    echo "error: sessioned chaos run ($args) did not replay-verify" >&2
    exit 1
  fi
done

echo "==> loopback smoke: loadgen with an idle crowd"
cargo run --release -p nomloc-cli --bin nomloc --offline -- \
  loadgen --requests 200 --idle-connections 500

echo "==> single-flight latency smoke: one request in flight, loopback daemon"
# With one request in flight at a time every request arrives alone at an
# idle queue and is solved on the event loop that read it, so its p50 is
# socket plus solve time only: ~0.05 ms on a 2-vCPU host. Any timer in
# the request path shows up here in full (the old 500 µs batch-fill
# window measured 0.74-0.80 ms on the same host).
sf_out="$(cargo run --release -p nomloc-cli --bin nomloc --offline -- \
  loadgen --connections 1 --concurrency 1 --requests 1000 --packets 1)"
sf_p50="$(echo "$sf_out" | sed -n 's/.*latency p50 \([0-9.]*\) ms.*/\1/p' | head -1)"
if [[ -z "$sf_p50" ]]; then
  echo "error: single-flight loadgen reported no latency p50" >&2
  exit 1
fi
awk -v p="$sf_p50" 'BEGIN {
  printf "    single-flight latency p50: %.3f ms (limit 0.400 ms)\n", p
  exit (p >= 0.4) ? 1 : 0
}' || {
  echo "error: single-flight p50 >= 0.4 ms — is a timer back in the dispatch path?" >&2
  exit 1
}

echo "==> multi-venue smoke: 8 venues over the admin plane, zipf traffic"
mv_out="$(cargo run --release -p nomloc-cli --bin nomloc --offline -- \
  loadgen --requests 400 --packets 2 --venues 8 --zipf 1.0)"
echo "$mv_out" | grep -E "venue batching|zipf"
# A popped batch is one venue's FIFO, never a mixed-venue micro-batch.
if ! echo "$mv_out" | grep -q ", 0 mixed"; then
  echo "error: dispatch queue produced mixed batches" >&2
  exit 1
fi
# Every request is attributed to exactly one venue: the per-venue request
# counters in the drain-time health must sum to the driven total.
mv_total="$(echo "$mv_out" | sed -n 's/^ *venue [0-9][0-9]* *req \([0-9]*\).*/\1/p' |
  awk '{s+=$1} END {print s+0}')"
if [[ "$mv_total" != "400" ]]; then
  echo "error: per-venue request counters sum to ${mv_total}, expected 400" >&2
  exit 1
fi

echo "==> contended-dispatch smoke: 8 closed-loop workers over 100 zipf venues"
cd_out="$(cargo run --release -p nomloc-cli --bin nomloc --offline -- \
  loadgen --requests 400 --packets 2 --venues 100 --zipf 1.0 --concurrency 8)"
echo "$cd_out" | grep -E "closed-loop|venue batching"
if ! echo "$cd_out" | grep -q "closed-loop: 8 workers"; then
  echo "error: closed-loop run did not report its worker pool" >&2
  exit 1
fi
# The queue must keep every micro-batch venue-homogeneous even under
# contended dispatch across 101 live venues.
if ! echo "$cd_out" | grep -q ", 0 mixed"; then
  echo "error: contended dispatch produced mixed batches" >&2
  exit 1
fi
# Every driven request lands on exactly one venue counter.
cd_total="$(echo "$cd_out" | sed -n 's/^ *venue [0-9][0-9]* *req \([0-9]*\).*/\1/p' |
  awk '{s+=$1} END {print s+0}')"
if [[ "$cd_total" != "400" ]]; then
  echo "error: per-venue request counters sum to ${cd_total}, expected 400" >&2
  exit 1
fi

echo "==> serving benchmark (quick) and its gates"
# The quick run writes its own file, so the committed BENCH_serving.json
# stays untouched. bench_gate holds it to the committed file as of HEAD;
# the gate table, each limit and the runs that set it are in
# crates/bench/src/bin/bench_gate.rs.
NOMLOC_BENCH_QUICK=1 NOMLOC_BENCH_SERVING_JSON=target/BENCH_serving.quick.json \
  cargo run --release -p nomloc-bench --bin bench_serving_json --offline
git show HEAD:BENCH_serving.json > target/BENCH_serving.committed.json
cargo run --release -q -p nomloc-bench --bin bench_gate --offline -- \
  target/BENCH_serving.committed.json target/BENCH_serving.quick.json

echo "All checks passed."
