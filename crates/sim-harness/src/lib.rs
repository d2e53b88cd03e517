//! Deterministic simulation harness for the Hive platform.
//!
//! Drives the full [`hive_core::Hive`] facade with the replication op
//! stream ([`hive_replica::synth::step_ops`]) plus interleaved reads
//! ([`workload`]), periodically "crashes" the deployment by serializing
//! it to a JSON snapshot and reloading, and checks these oracle
//! families along the way. Every one of them compares served answers
//! through [`answers`]: one digest per served type, so two answers
//! match only when every field a user sees agrees bit for bit.
//!
//! 1. **Recovery equivalence** ([`oracle`]): after snapshot + reload, a
//!    fixed battery of queries (PPR top-k, peer recommendations,
//!    relationship explanations, ranked path queries, search, feeds,
//!    reports, history) must answer bit-identically to the pre-crash
//!    instance.
//! 2. **Fault injection** ([`fault`]): truncated, bit-flipped,
//!    version-bumped, and field-dropped snapshot JSON must surface a
//!    typed error — never a panic, never a silently half-loaded
//!    database.
//! 3. **Differential oracles** ([`oracle::differential_check`]):
//!    cached-vs-fresh relationship-graph views and the delta-patched
//!    facade against a cold rebuild must agree.
//!    At the end of the run the facade's PPR memo must hold at most
//!    [`hive_core::PprCache::CAP`] entries.
//! 4. **Snapshot consistency** ([`serve`]): an N-reader × 1-writer
//!    soak over the epoch serving layer where every concurrent read
//!    must be bit-identical to a cold serial replay at the epoch it
//!    was served from (`--serve-readers N` on the binary).
//! 5. **Replication equivalence** ([`replica`]): a leader plus N
//!    log-shipped followers under deterministic transport faults
//!    (drop/dup/reorder/truncate) with crash/restart and failover,
//!    where every caught-up follower's fingerprint must equal the
//!    leader's bit-for-bit (`--followers N --faults all` on the
//!    binary).
//!
//! Everything derives from one `u64` seed through [`hive_rng`] stream
//! forking, so any reported violation reproduces from the printed seed
//! alone: `cargo run -p hive-sim-harness -- --seed N --steps M`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answers;
pub mod fault;
pub mod harness;
pub mod oracle;
pub mod replica;
pub mod serve;
pub mod workload;

pub use harness::{CheckerKind, HarnessConfig, SimHarness, SoakReport, Violation};
pub use replica::{replica_soak, FaultMenu, ReplicaSoakConfig, ReplicaSoakReport};
pub use serve::{serve_soak, ServeConfig, ServeReport};
