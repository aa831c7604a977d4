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
# builds of the batched IFFT and peak fold run the same scalar code. The
# release build is the one whose packed loops must match bit for bit.
cargo test -q --release --offline -p nomloc-dsp
cargo test -q --release --offline -p nomloc-net --lib crc32

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

echo "==> serving benchmark (quick): well-formed JSON under target/"
# The quick run writes its own file, so the committed BENCH_serving.json
# stays untouched; the guards below compare the quick figures against the
# committed ones as of HEAD.
quick_json=target/BENCH_serving.quick.json
pdp_ratio() {
  sed -n 's/.*"pdp_batched".*"ratio"[[:space:]]*:[[:space:]]*\([0-9.]*\).*/\1/p' | head -1
}
committed_pdp="$(git show HEAD:BENCH_serving.json 2>/dev/null | pdp_ratio)"
NOMLOC_BENCH_QUICK=1 NOMLOC_BENCH_SERVING_JSON="$quick_json" \
  cargo run --release -p nomloc-bench --bin bench_serving_json --offline
if [[ ! -s "$quick_json" ]]; then
  echo "error: $quick_json missing or empty" >&2
  exit 1
fi
for key in crc stages fft pdp_64 pdp_batched encode end_to_end speedup decode_ns_per_request soak dispatch sessions; do
  if ! grep -q "\"$key\"" "$quick_json"; then
    echo "error: $quick_json malformed — missing key \"$key\"" >&2
    exit 1
  fi
done

echo "==> PDP stage regression guard (stage / per-packet oracle, paired in-run)"
# The PDP stage (`extract_readings`) is timed in rounds interleaved with
# the per-packet planned oracle over the same requests, and the gate is
# the median per-round ratio (`pdp_batched.ratio`): the host's speed
# swings move both sides together, where the stage's absolute ns/request
# moved 11.7–23.7 µs between quick runs. A slowdown of the stage's own
# code by a factor f lifts the ratio by f, so the 25% margin fails a
# planted 1.5x slowdown; clean quick runs pass it. With the AVX2 build of
# the batched kernels committed at ~0.39, a build forced to baseline
# width read 0.60-0.62 in 10 of 10 quick runs and fails.
# Blind spot: code both sides run (the window taper, mean_spacing_hz,
# median_in_place, the FFT plan caches) slows both sides, so the ratio
# barely moves. A planted taper slowdown that took the stage from
# ~13 to ~19 µs left the ratio under the limit in 5 of 5 runs. Two
# yardsticks that share no code with the stage, a fixed arithmetic loop
# and a frozen textbook FFT, spread too widely to gate on: the stage's
# time is bimodal per process (~13 or ~21 µs) and only the oracle
# follows it.
new_pdp="$(pdp_ratio < "$quick_json")"
if [[ -z "$new_pdp" ]]; then
  echo "error: pdp_batched.ratio missing from $quick_json" >&2
  exit 1
elif [[ -z "$committed_pdp" ]]; then
  echo "    no committed baseline (new section?) — skipping"
else
  awk -v new="$new_pdp" -v old="$committed_pdp" 'BEGIN {
    limit = old * 1.25
    printf "    pdp_batched.ratio: %.4f (committed %.4f, limit %.4f)\n", new, old, limit
    exit (new > limit) ? 1 : 0
  }' || {
    echo "error: PDP stage regressed >25% against its per-packet oracle" >&2
    exit 1
  }
fi

echo "==> CRC kernel guard (crc.ns_per_kib vs committed BENCH_serving.json)"
# The frame CRC over one 45.7 KiB dense request payload, in ns per KiB.
# On a host with PCLMULQDQ the folding kernel takes all but the last
# 15 bytes; slicing-by-8 alone runs about 15x slower, so a 3x margin fails
# a fallback to it (a build that lost the kernel, or a host without it)
# while absorbing quick-run noise. On a 2-vCPU host 20 clean quick runs
# read 32.2-34.8 against a committed 33.1, and a build with the folding
# kernel switched off read 511.6-511.7 in 10 of 10 runs.
crc_kib() {
  sed -n 's/.*"crc"[[:space:]]*:.*"ns_per_kib"[[:space:]]*:[[:space:]]*\([0-9.]*\).*/\1/p' | head -1
}
committed_crc="$(git show HEAD:BENCH_serving.json 2>/dev/null | crc_kib)"
new_crc="$(crc_kib < "$quick_json")"
if [[ -z "$new_crc" ]]; then
  echo "error: crc.ns_per_kib missing from $quick_json" >&2
  exit 1
elif [[ -z "$committed_crc" ]]; then
  echo "    no committed baseline (new section?) — skipping"
else
  awk -v new="$new_crc" -v old="$committed_crc" 'BEGIN {
    limit = old * 3
    printf "    crc.ns_per_kib: %.2f (committed %.2f, limit %.2f)\n", new, old, limit
    exit (new > limit) ? 1 : 0
  }' || {
    echo "error: frame CRC is more than 3x its committed cost — did it fall back to slicing-by-8?" >&2
    exit 1
  }
fi

echo "==> dispatch regression guard (quick run vs committed BENCH_serving.json)"
# The 100-venue entry is the last element of the "dispatch" array: the
# contended regime (deep backlog, 8 connections racing 2 batchers for one
# queue lock). Its pipelined ns/request must not regress vs the committed
# baseline. The margin is wider than the PDP stage guard's because this
# regime is noisier per quick-mode run than an in-process microbench; it
# catches gross regressions of the dispatch queue. The one-queue design
# read at parity with the 8-shard plane it replaced over 10 alternating
# quick pairs, so the committed sharded baseline still applies.
dispatch_ns() {
  sed -n '/"dispatch"/s/.*"ns_per_request"[[:space:]]*:[[:space:]]*\([0-9.]*\).*/\1/p'
}
committed_disp="$(git show HEAD:BENCH_serving.json 2>/dev/null | dispatch_ns)"
new_disp="$(dispatch_ns < "$quick_json")"
if [[ -z "$new_disp" ]]; then
  echo "error: dispatch section missing from $quick_json" >&2
  exit 1
fi
if [[ -z "$committed_disp" ]]; then
  echo "    no committed dispatch baseline (new section?) — skipping relative gate"
else
  awk -v new="$new_disp" -v old="$committed_disp" 'BEGIN {
    limit = old * 1.5
    printf "    dispatch ns_per_request at 100 venues: %.1f (committed %.1f, limit %.1f)\n", new, old, limit
    exit (new > limit) ? 1 : 0
  }' || {
    echo "error: dispatch queue regressed >50% vs committed baseline" >&2
    exit 1
  }
fi

echo "==> session overhead guard (sessions.ratio, paired in-run)"
# Sessioned vs stateless passes over the same workload against one
# daemon, run back to back in each round; the gate is the median over
# rounds of sessioned time over stateless time, which a slow spell of the
# host lifts on both sides alike. Quick mode runs 60 rounds: with 15, a
# clean run read over the limit about once in 20 once a stateless request
# cost ~12 us. On a 2-vCPU host 20 clean quick runs of 60 rounds read
# 0.963-1.065, and a 6 us busy-wait per sessioned request (half a
# stateless request) read 1.162-1.309 in 10 of 10 runs, so the limit
# sits between them. (The min-of-5 overhead percentage this replaces
# spread from -14.5% to +27.3% on clean runs against a +25% limit.)
sessions_ratio="$(sed -n '/"sessions"/s/.*"ratio"[[:space:]]*:[[:space:]]*\([0-9.]*\).*/\1/p' \
  "$quick_json" | head -1)"
if [[ -z "$sessions_ratio" ]]; then
  echo "error: sessions.ratio missing from $quick_json" >&2
  exit 1
fi
awk -v r="$sessions_ratio" 'BEGIN {
  printf "    sessions.ratio: %.4f (limit 1.15)\n", r
  exit (r > 1.15) ? 1 : 0
}' || {
  echo "error: session tracking costs more than 15% per request" >&2
  exit 1
}

echo "==> idle-crowd p99 guard (soak idle_p99_ratio)"
# Satellite of the dispatch PR: with bounded accept draining and O(1)
# dirty-marking, an idle herd may no longer multiply active p99 by more
# than this. Before the fix the ratio ran >3x and unbounded with crowd
# size; the gate holds the line well under the old failure mode while
# absorbing quick-mode noise.
idle_ratio="$(sed -n 's/.*"idle_p99_ratio"[[:space:]]*:[[:space:]]*\([0-9.]*\).*/\1/p' \
  "$quick_json" | head -1)"
if [[ -z "$idle_ratio" ]]; then
  echo "    soak skipped (no nomloc binary) — skipping ratio gate"
else
  awk -v r="$idle_ratio" 'BEGIN {
    printf "    idle_p99_ratio: %.2fx (limit 4.50x)\n", r
    exit (r > 4.5) ? 1 : 0
  }' || {
    echo "error: idle crowd inflates active p99 beyond 4.5x" >&2
    exit 1
  }
fi

echo "All checks passed."
