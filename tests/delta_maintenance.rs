//! Delta-maintenance property tests: patched snapshots must be
//! *bit-identical* to cold rebuilds, never merely close.
//!
//! Two layers are pinned down, both driven by the in-tree seeded
//! runner (`hive_bench::prop`):
//!
//! 1. **Store/view** — [`GraphView::apply_delta`] replays the triple
//!    store's delta-log suffix into the CSR in place; after any
//!    randomized mutation sequence the patched view must equal a cold
//!    [`GraphView::build`] under [`GraphView::bitwise_diff`] (floats by
//!    `to_bits`).
//! 2. **Facade** — a live [`Hive`] whose kn/rel snapshots are patched
//!    forward across interleaved mutations and queries must answer the
//!    soak fingerprint's battery exactly like a cold platform built from
//!    a clone of the same database.

use hive_bench::prop::{check, DEFAULT_CASES};
use hive_bench::prop_ensure;
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::Hive;
use hive_rng::Rng;
use hive_sim_harness::oracle::fingerprint;
use hive_store::{GraphView, Term, TripleStore};

// ---- layer 1: GraphView::apply_delta vs GraphView::build ---------------

/// A small universe of terms so mutations collide: overwrites, removes
/// of present and absent triples, rows appearing and vanishing.
fn gen_entity(rng: &mut Rng) -> Term {
    Term::iri(format!("e{}", rng.gen_range(0..10u32)))
}

fn gen_pred(rng: &mut Rng) -> Term {
    Term::iri(format!("p{}", rng.gen_range(0..3u32)))
}

fn gen_weight(rng: &mut Rng) -> f64 {
    rng.gen_range(1..=100u32) as f64 / 100.0
}

/// One random mutation; literal objects are mixed in so the patcher
/// must keep skipping attribute triples exactly like the cold scan.
fn mutate(st: &mut TripleStore, rng: &mut Rng) {
    match rng.gen_range(0..5u32) {
        0 | 1 => {
            let _ = st.insert(gen_entity(rng), gen_pred(rng), gen_entity(rng), gen_weight(rng));
        }
        2 => {
            let _ = st.insert(
                gen_entity(rng),
                gen_pred(rng),
                Term::str(format!("label{}", rng.gen_range(0..4u32))),
                1.0,
            );
        }
        3 => {
            st.remove(&gen_entity(rng), &gen_pred(rng), &gen_entity(rng));
        }
        _ => {
            let (s, p, o) = (gen_entity(rng), gen_pred(rng), gen_entity(rng));
            let w = gen_weight(rng);
            let _ = st.set_weight(&s, &p, &o, w);
        }
    }
}

/// After every mutation burst, a patched view equals a cold rebuild
/// bit-for-bit (or honestly refuses and the caller rebuilds).
#[test]
fn apply_delta_is_bitwise_identical_to_cold_rebuild() {
    check("delta::view_patch_equals_rebuild", DEFAULT_CASES, |rng| {
        let mut st = TripleStore::new();
        for _ in 0..rng.gen_range(0..40usize) {
            mutate(&mut st, rng);
        }
        let mut view = GraphView::build(&st);
        // Several bursts against the same live view: the patched state
        // of burst k is the starting point of burst k+1, so errors
        // would compound and surface.
        for _ in 0..rng.gen_range(1..4usize) {
            for _ in 0..rng.gen_range(0..12usize) {
                mutate(&mut st, rng);
            }
            if !view.apply_delta(&st) {
                view = GraphView::build(&st);
            }
            let cold = GraphView::build(&st);
            if let Some(diff) = view.bitwise_diff(&cold) {
                return Err(format!("patched view diverged from cold rebuild: {diff}"));
            }
            prop_ensure!(view.is_current(&st), "patched view must carry the new generation");
        }
        Ok(())
    });
}

/// When the delta window outgrows the view, `apply_delta` must refuse
/// (leaving the view untouched) rather than patch slower than a build.
#[test]
fn apply_delta_refuses_oversized_windows() {
    check("delta::view_patch_refuses_large_delta", DEFAULT_CASES / 4, |rng| {
        let mut st = TripleStore::new();
        st.insert(Term::iri("a"), Term::iri("p"), Term::iri("b"), 0.5)
            .map_err(|e| e.to_string())?;
        let mut view = GraphView::build(&st);
        let before = view.clone();
        // Far past REBUILD_FRACTION of a 2-edge view (floor included).
        for i in 0..rng.gen_range(60..120u32) {
            st.insert(Term::iri(format!("n{i}")), Term::iri("p"), Term::iri("a"), 0.9)
                .map_err(|e| e.to_string())?;
        }
        prop_ensure!(!view.apply_delta(&st), "oversized delta must fall back to rebuild");
        prop_ensure!(
            view.bitwise_diff(&before).is_none(),
            "a refused patch must leave the view untouched"
        );
        let rebuilt = GraphView::build(&st);
        prop_ensure!(rebuilt.is_current(&st));
        Ok(())
    });
}

/// A view stamped by a *different* store (future generation) must
/// refuse to patch instead of splicing foreign deltas.
#[test]
fn apply_delta_refuses_foreign_generations() {
    let mut big = TripleStore::new();
    for i in 0..8 {
        big.insert(Term::iri(format!("x{i}")), Term::iri("p"), Term::iri("x0"), 0.5).unwrap();
    }
    let mut view = GraphView::build(&big);
    let mut other = TripleStore::new();
    other.insert(Term::iri("a"), Term::iri("p"), Term::iri("b"), 0.5).unwrap();
    assert!(
        !view.apply_delta(&other),
        "a future-generation stamp must force a rebuild, not a patch"
    );
}

// ---- layer 2: delta-patched facade vs cold platform --------------------

/// One random patchable-or-structural facade mutation. Most choices
/// append patchable events (Follow / Connect / CheckIn / Attend /
/// ViewPaper); a rare structural one forces the rebuild path so both
/// maintenance tiers get exercised in every sequence.
fn facade_mutate(hive: &mut Hive, rng: &mut Rng) {
    let users = hive.db().user_ids();
    let sessions = hive.db().session_ids();
    let papers = hive.db().paper_ids();
    let confs = hive.db().conference_ids();
    let u = users[rng.gen_range(0..users.len())];
    let v = users[rng.gen_range(0..users.len())];
    match rng.gen_range(0..12u32) {
        0..=3 => {
            let _ = hive.follow(u, v);
        }
        4 | 5 => {
            if let Some(&s) = sessions.get(rng.gen_range(0..sessions.len().max(1))) {
                let _ = hive.check_in(u, s);
            }
        }
        6 | 7 => {
            if let Some(&p) = papers.get(rng.gen_range(0..papers.len().max(1))) {
                let _ = hive.view_paper(u, p);
            }
        }
        8 | 9 => {
            if let Some(&c) = confs.get(rng.gen_range(0..confs.len().max(1))) {
                let _ = hive.attend(u, c);
            }
        }
        10 => {
            let _ = hive.request_connection(u, v);
            let _ = hive.respond_connection(v, u, true);
        }
        _ => {
            hive.add_user(hive_core::model::User::new(
                format!("Latecomer {}", rng.gen_range(0..1000u32)),
                "Somewhere U",
            ));
        }
    }
}

/// Across interleaved mutations and queries, the live facade — whose
/// kn/rel snapshots are being patched in place — answers exactly like
/// a cold platform rebuilt from a clone of the same database. Also
/// asserts that the delta path actually ran (the property would be
/// vacuous if every checkpoint quietly rebuilt).
#[test]
fn delta_patched_facade_matches_cold_platform() {
    // Counters default to `Off` without HIVE_OBS; pin a recording level
    // so the did-the-delta-path-run assertion below has signal.
    hive_obs::with_level(hive_obs::Level::Counts, || {
        delta_patched_facade_matches_cold_platform_body();
    });
}

fn delta_patched_facade_matches_cold_platform_body() {
    let before = hive_obs::snapshot().counter("core.kn.delta");
    check("delta::facade_patch_equals_cold_platform", 10, |rng| {
        let sim = SimConfig { seed: rng.next_u64(), users: 10, ..SimConfig::small() };
        let world = WorldBuilder::new(sim).build();
        let mut hive = Hive::new(world.db);
        // Warm the snapshots so subsequent mutations patch, not rebuild.
        let _ = fingerprint(&hive);
        for _ in 0..rng.gen_range(2..5usize) {
            for _ in 0..rng.gen_range(1..6usize) {
                facade_mutate(&mut hive, rng);
            }
            let cold = Hive::new(hive.db().clone());
            let diff = fingerprint(&hive).diff(&fingerprint(&cold));
            prop_ensure!(
                diff.is_empty(),
                "delta-patched facade diverged from cold platform: {diff:?}"
            );
        }
        Ok(())
    });
    let after = hive_obs::snapshot().counter("core.kn.delta");
    assert!(
        after > before,
        "the knowledge snapshot must have been delta-patched at least once \
         ({before} -> {after}); otherwise this test only compared rebuilds"
    );
}
