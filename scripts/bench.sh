#!/usr/bin/env bash
# Quick benchmark pass: runs the LP-scaling and serving-throughput benches
# in quick mode (NOMLOC_BENCH_QUICK clamps the criterion shim's sampling
# budget and shrinks the paired min-of-rounds loops), then regenerates the
# machine-readable BENCH_lp.json via the bench_json binary.
#
# Usage: scripts/bench.sh [--full]
#   --full   drop the quick clamp and run the complete sampling budget
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--full" ]]; then
  unset NOMLOC_BENCH_QUICK || true
else
  export NOMLOC_BENCH_QUICK=1
fi

echo "==> cargo bench lp_scaling${NOMLOC_BENCH_QUICK:+ (quick)}"
cargo bench -p nomloc-bench --bench lp_scaling --offline

echo "==> cargo bench serving_throughput${NOMLOC_BENCH_QUICK:+ (quick)}"
cargo bench -p nomloc-bench --bench serving_throughput --offline

echo "==> bench_json -> BENCH_lp.json"
cargo run --release -p nomloc-bench --bin bench_json --offline

echo "==> bench_serving_json -> BENCH_serving.json"
cargo run --release -p nomloc-bench --bin bench_serving_json --offline

echo "==> loadgen quick throughput (loopback daemon, 4 connections)"
cargo run --release -p nomloc-cli --bin nomloc --offline -- \
  loadgen --requests 1000 --packets 2 --connections 4

# Fault-injection overhead: time the chaos driver (sequential, loopback)
# at a 0 % and a 1 % per-class fault rate, same seed and workload, so the
# cost of the degradation ladder + retry machinery stays visible.
echo "==> chaos throughput: 0 % vs 1 % per-class fault rate"
chaos_reqs=400
for rate in 0.0 0.01; do
  start_ns=$(date +%s%N)
  cargo run --release -p nomloc-cli --bin nomloc --offline -- \
    chaos --seed 7 --requests "$chaos_reqs" --rate "$rate" >/dev/null
  elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
  echo "  rate $rate: $chaos_reqs requests in ${elapsed_ms} ms" \
       "($(( chaos_reqs * 1000 / (elapsed_ms > 0 ? elapsed_ms : 1) )) req/s incl. daemon spawn + verify)"
done

echo "Benchmarks done."
