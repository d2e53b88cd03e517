//! The database generation and the facade's generation-keyed tiers:
//! mutations must bump the generation, the facade's cached relationship
//! view must never serve pre-mutation paths, and the PPR tier emits its
//! hit/delta/miss counters.

use hive_core::model::User;
use hive_core::peers::PeerRecConfig;
use hive_core::evidence;
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::Hive;
use std::collections::HashMap;

#[test]
fn db_generation_bumps_on_content_mutations_only() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let mut hive = Hive::new(world.db);
    let g0 = hive.db().generation();
    let users = hive.db().user_ids();
    hive.follow(users[0], users[2]).unwrap();
    let g1 = hive.db().generation();
    assert!(g1 > g0, "follow must bump the generation");
    let _ = hive.db().generation();
    assert_eq!(hive.db().generation(), g1, "reads must not bump the generation");
    hive.add_user(User::new("Newcomer", "ASU"));
    assert!(hive.db().generation() > g1, "add_user must bump the generation");
}

/// A write that moves an explanation's paths reaches the served view.
/// `users[0]` and `users[2]` are not connected in the small world, so
/// connecting them turns their top path from a chain into the direct
/// `rel:connected` hop. Before and after, the served paths equal an
/// explanation over a fresh store export of the same database.
#[test]
fn explain_relationship_never_serves_a_stale_view() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let mut hive = Hive::new(world.db);
    let users = hive.db().user_ids();
    let (a, b) = (users[0], users[2]);
    let fresh = |hive: &Hive| {
        let kn = hive.knowledge();
        let store = kn.to_store(hive.db());
        evidence::explain_relationship(hive.db(), &kn, &store, a, b, 3).paths
    };
    // Warms the relationship tier.
    let before = hive.explain_relationship(a, b).paths;
    assert_eq!(before, fresh(&hive));
    let hops = |path: &str| path.split("  ->  ").count();
    assert_eq!(hops(&before[0]), 4, "the top path is a chain: {before:?}");
    hive.request_connection(a, b).unwrap();
    hive.respond_connection(b, a, true).unwrap();
    let after = hive.explain_relationship(a, b).paths;
    assert_eq!(after, fresh(&hive), "the served view must carry the new edge");
    assert_eq!(hops(&after[0]), 1, "the direct hop ranks first: {after:?}");
    assert!(after[0].contains("rel:connected"), "{after:?}");
    // Re-asking at the same generation is stable.
    assert_eq!(hive.explain_relationship(a, b).paths, after);
}

#[test]
fn facade_ppr_tier_emits_generation_counters() {
    hive_obs::with_level(hive_obs::Level::Counts, || {
        let world = WorldBuilder::new(SimConfig::small()).build();
        let mut hive = Hive::new(world.db);
        let users = hive.db().user_ids();
        hive_obs::reset();
        let first = hive.recommend_peers(users[0], PeerRecConfig::default());
        let second = hive.recommend_peers(users[0], PeerRecConfig::default());
        assert_eq!(first.len(), second.len(), "same generation, same answer");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.user, b.user);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        let counters: HashMap<String, u64> =
            hive_obs::drain_counters().into_iter().collect();
        assert_eq!(counters.get("core.ppr.miss"), Some(&1), "first probe builds the tier");
        assert!(
            counters.get("core.ppr.hit").copied().unwrap_or(0) >= 1,
            "second probe reuses it: {counters:?}"
        );
        assert!(
            counters.get("core.ppr.memo_hit").copied().unwrap_or(0) >= 1,
            "repeated seed distribution is memoized: {counters:?}"
        );
        // A journal-covered graph-touching mutation patches the tier
        // forward (clearing the memo) instead of rebuilding it.
        hive.follow(users[0], users[2]).unwrap();
        let _ = hive.recommend_peers(users[0], PeerRecConfig::default());
        let counters: HashMap<String, u64> =
            hive_obs::drain_counters().into_iter().collect();
        assert_eq!(
            counters.get("core.ppr.delta"),
            Some(&1),
            "journaled mutation takes the delta path: {counters:?}"
        );
    });
}
