//! Seed-driven multi-user workload against the [`Hive`] facade.
//!
//! Every step applies the replication op stream's next step
//! ([`hive_replica::synth::step_ops`]: a clock advance and one mutation
//! drawn from a fixed distribution over the platform API) through
//! [`hive_replica::ops::apply`], so the recovery and serve soaks write
//! exactly what the replication soak ships. On 16 steps in 100 a
//! read-only service query follows. Operations that the platform
//! legitimately rejects (duplicate follow, answering an unanswerable
//! question, ...) count as *rejected*, not as failures — the harness
//! only requires that rejections are typed errors, which the facade's
//! `Result` signatures already guarantee at compile time.

use hive_core::clock::Timestamp;
use hive_core::discover::DiscoverConfig;
use hive_core::peers::PeerRecConfig;
use hive_core::sim::topic_phrase;
use hive_core::Hive;
use hive_replica::{ops, synth};
use hive_rng::Rng;

/// Running tallies of what the generator did.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkloadStats {
    /// Operations the platform accepted.
    pub applied: usize,
    /// Operations the platform rejected with a typed error.
    pub rejected: usize,
}

/// Applies one step's ops, then on 16 rolls in 100 one read-only query.
pub fn step(hive: &mut Hive, rng: &mut Rng, step_no: usize, stats: &mut WorkloadStats) {
    for op in synth::step_ops(hive, step_no, rng) {
        match ops::apply(&op, hive) {
            Ok(()) => stats.applied += 1,
            Err(_) => stats.rejected += 1,
        }
    }
    if rng.gen_range(0..100u32) >= 16 {
        return;
    }
    // Read-only service traffic interleaved with the mutations; results
    // are discarded here (the oracles assert on them at crash points),
    // but the calls must not error or panic.
    let users = hive.db().user_ids();
    if users.len() < 2 {
        return;
    }
    let i = rng.gen_range(0..users.len());
    let u = users[i];
    match rng.gen_range(0..5u32) {
        0 => {
            let q = topic_phrase(rng.gen_range(0..4), rng);
            let _ = hive.search(u, &q, DiscoverConfig::default());
        }
        1 => {
            let _ = hive.recommend_peers(u, PeerRecConfig::default());
        }
        2 => {
            // Any user other than `u`.
            let v = users[(i + rng.gen_range(1..users.len())) % users.len()];
            let _ = hive.explain_relationship(u, v);
        }
        3 => {
            let _ = hive.digest(u, Timestamp(0));
        }
        _ => {
            let _ = hive.similar_peers(u, 5);
        }
    }
}
