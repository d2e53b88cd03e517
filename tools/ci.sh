#!/usr/bin/env bash
# Tier-1 verify: offline build + tests + the hive-lint static-analysis
# pass (R1 hermetic-deps, R2 no-panic-paths, R3 deterministic-time,
# R4 no-stray-io, R5 forbid-unsafe, R6 no-raw-threads,
# R7 instrumented-facade, R8 delta-log, R9 snapshot-discipline,
# R10 exhaustive-delta, R11 lock-scope, R12 determinism-taint,
# R13 no-full-scan).
# Everything must work with no network access — the workspace has zero
# registry dependencies. The lint pass publishes a machine-readable
# report at target/lint-report.json as a CI artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

# The release build must print no warning. Its output is checked rather
# than built with `-D warnings`, so CI and the benchmark build the same
# binaries; cargo replays a cached crate's warnings, so a build with
# nothing to compile is checked too.
build_log=$(cargo build --release --offline --color never 2>&1 | tee /dev/stderr)
if grep -q '^warning' <<<"$build_log"; then
  echo "ci: cargo build --release printed a warning (see above)" >&2
  exit 1
fi
cargo test -q --offline
cargo run -p hive-lint --offline -- --json target/lint-report.json
# Bounded crash/recovery soak (fixed seed, seconds): recovery
# equivalence + fault injection + differential oracles must all hold,
# plus the N-reader x 1-writer serving soak's snapshot-consistency
# oracle (every concurrent read bit-identical to a serial replay),
# plus the replication soak (2 log-shipped followers under the full
# drop/dup/reorder/truncate fault plan, crash/restart, and failover —
# every caught-up follower bit-identical to the leader).
./target/release/hive-sim-harness --seed 42 --steps 60 --crashes 2 --serve-readers 2 \
  --followers 2 --faults all
# Figure 1 prints only seeded world data (session traffic, activity
# counts, the ticker), so it regenerates byte for byte.
./target/release/fig1_platform | diff - results/fig1_platform.txt
# Figure 3 regenerates byte for byte: the concept-map layers are built
# on demand, off the serving knowledge tier, and this keeps them checked.
./target/release/fig3_layers | diff - results/fig3_layers.txt
# Figure 2 prints explain_relationship's evidence text and paths end to
# end (its path-latency table goes to stderr), so it regenerates byte
# for byte as well.
./target/release/fig2_relationships | diff - results/fig2_relationships.txt
# E4 and Figure 4 print only PPR-backed read results (rankings and
# hit-rates, no timings), so they regenerate byte for byte too and pin
# the served ranking bits end to end.
./target/release/exp_peer_rec | diff - results/exp_peer_rec.txt
./target/release/fig4_workpads | diff - results/fig4_workpads.txt
# E1-E3, E5 and Table 1 print wall-clock timings next to their seeded
# numbers: they regenerate with durations and speedup ratios masked on
# both sides, so every seeded number is still diffed.
mask() { sed -E 's/[0-9]+(\.[0-9]+)?(ns|us|ms|s|x)( |$)/~\3/g; s/ +/ /g'; }
for exp in exp_alphasum exp_ini exp_scent exp_communities table1_services; do
  ./target/release/"$exp" | mask | diff - <(mask < results/"$exp".txt)
done
# Bench regression gate over the checked-in BENCH_hive.json: no
# *_speedup metric may sit below 1.0 (see tools/bench_allowlist.txt).
cargo run -q --release -p hive-bench --offline --bin bench_gate -- \
  BENCH_hive.json tools/bench_allowlist.txt
