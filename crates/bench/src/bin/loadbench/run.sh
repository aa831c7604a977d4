#!/usr/bin/env bash
# Builds the nomloc daemon and loadbench from source, then runs loadbench
# with the given arguments. Run from the repository root:
#
#   bash crates/bench/src/bin/loadbench/run.sh --workload lab-dense --seed 2014
#
# Both builds share one target directory (CARGO_TARGET_DIR, default
# `target`); results and span files go under <target>/loadbench/.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline -p nomloc-cli --bin nomloc
cargo build --release --quiet --offline \
  --manifest-path crates/bench/src/bin/loadbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/loadbench" \
  --daemon "$CARGO_TARGET_DIR/release/nomloc" "$@"
