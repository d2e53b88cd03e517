#!/usr/bin/env bash
# Runs every bench binary in smoke mode (HIVE_BENCH_SMOKE shrinks the
# iteration counts, not the workloads) and merges the per-bench JSON
# fragments into BENCH_hive.json at the repo root. Unset
# HIVE_BENCH_SMOKE=1 below for full-length runs.
set -euo pipefail
cd "$(dirname "$0")/.."

export HIVE_BENCH_SMOKE="${HIVE_BENCH_SMOKE:-1}"
# Absolute: cargo runs bench binaries with the package dir as cwd.
export HIVE_BENCH_JSON_DIR="$(pwd)/${HIVE_BENCH_JSON_DIR:-target/bench-json}"
rm -rf "$HIVE_BENCH_JSON_DIR"
mkdir -p "$HIVE_BENCH_JSON_DIR"

for b in bench_store bench_scent bench_ini bench_text bench_concept bench_platform bench_obs bench_lint bench_index bench_serve bench_replica; do
  cargo bench -q -p hive-bench --offline --bench "$b"
done

cargo run -q --release -p hive-bench --offline --bin bench_merge -- \
  "$HIVE_BENCH_JSON_DIR" BENCH_hive.json

# Regression gate: every *_speedup metric must be >= 1.0 (known-serial
# cases live in the allowlist).
cargo run -q --release -p hive-bench --offline --bin bench_gate -- \
  BENCH_hive.json tools/bench_allowlist.txt
