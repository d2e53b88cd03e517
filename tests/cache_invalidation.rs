//! Generation counters and the CSR snapshot caches: mutations must bump
//! the generation, stale views must be detected, the facade's cached
//! relationship graph must never serve pre-mutation answers, and the
//! facade's generation-keyed PPR tier emits its hit/delta/miss counters.

use hive_core::model::User;
use hive_core::peers::PeerRecConfig;
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::Hive;
use hive_store::{GraphView, Term, TripleStore};
use std::collections::HashMap;

#[test]
fn store_generation_bumps_on_mutation() {
    let mut st = TripleStore::new();
    let g0 = st.generation();
    st.insert(Term::iri("user:a"), Term::iri("rel:follows"), Term::iri("user:b"), 1.0)
        .unwrap();
    let g1 = st.generation();
    assert!(g1 > g0, "insert must bump the generation");
    st.set_weight(&Term::iri("user:a"), &Term::iri("rel:follows"), &Term::iri("user:b"), 0.5)
        .unwrap();
    let g2 = st.generation();
    assert!(g2 > g1, "set_weight must bump the generation");
    assert!(st.remove(&Term::iri("user:a"), &Term::iri("rel:follows"), &Term::iri("user:b")));
    assert!(st.generation() > g2, "remove must bump the generation");
}

#[test]
fn graph_view_detects_staleness_after_each_mutation_kind() {
    let mut st = TripleStore::new();
    st.insert(Term::iri("user:a"), Term::iri("rel:follows"), Term::iri("user:b"), 1.0)
        .unwrap();

    let view = GraphView::build(&st);
    assert!(view.is_current(&st));
    st.insert(Term::iri("user:b"), Term::iri("rel:follows"), Term::iri("user:c"), 1.0)
        .unwrap();
    assert!(!view.is_current(&st), "insert must invalidate the view");

    let view = GraphView::build(&st);
    st.set_weight(&Term::iri("user:a"), &Term::iri("rel:follows"), &Term::iri("user:b"), 0.2)
        .unwrap();
    assert!(!view.is_current(&st), "set_weight must invalidate the view");

    let view = GraphView::build(&st);
    assert!(st.remove(&Term::iri("user:b"), &Term::iri("rel:follows"), &Term::iri("user:c")));
    assert!(!view.is_current(&st), "remove must invalidate the view");
}

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

#[test]
fn explain_relationship_never_serves_a_stale_view() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let mut hive = Hive::new(world.db);
    let users = hive.db().user_ids();
    let (a, b) = (users[0], users[1]);
    // Warm the generation-keyed cache.
    let before = hive.explain_relationship(a, b);
    // Mutate: a now follows b (new edge + new evidence).
    let followed = hive.follow(a, b).is_ok();
    let after = hive.explain_relationship(a, b);
    if followed {
        assert!(
            after.combined >= before.combined,
            "new following evidence cannot lower the combined score: {} -> {}",
            before.combined,
            after.combined
        );
        assert!(
            after.items.len() > before.items.len()
                || after.combined > before.combined,
            "the post-mutation explanation must reflect the new edge"
        );
    }
    // Either way the cached snapshot must have been rebuilt for the new
    // generation — re-asking at the same generation is stable.
    let again = hive.explain_relationship(a, b);
    assert_eq!(after.items.len(), again.items.len());
    assert!(after.combined.to_bits() == again.combined.to_bits());
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
