//! Delta-maintenance property tests: patched snapshots must be
//! *bit-identical* to cold rebuilds, never merely close.
//!
//! Two layers are pinned down, both driven by the in-tree seeded
//! runner (`hive_bench::prop`):
//!
//! 1. **View** — [`GraphView::upsert`] moves a CSR view forward by a
//!    window of inserted or re-weighted triples; after any randomized
//!    sequence of windows the view, and [`GraphView::from_upserts`] over
//!    the whole sequence, must equal a cold [`GraphView::build`] of a
//!    store given the same inserts under [`GraphView::bitwise_diff`]
//!    (floats by `to_bits`).
//! 2. **Facade** — a live [`Hive`] whose kn/rel snapshots are patched
//!    forward across interleaved mutations and queries must answer the
//!    soak fingerprint's battery exactly like a cold
//!    [`hive_core::Epoch::rebuild`] of a clone of the same database.
//! 3. **Unified CSR** — [`UndirectedCsr::patch`] moves the knowledge
//!    tier's CSR forward by a window of undirected edges; after any
//!    randomized sequence of windows the CSR, and a cold
//!    [`UndirectedCsr::build`] of every edge so far, must equal
//!    [`CsrView::build`] of a [`Graph`] given the same
//!    `add_undirected_edge` calls, every array compared by `to_bits`.

use hive_bench::prop::{check, DEFAULT_CASES};
use hive_bench::prop_ensure;
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::{Epoch, Hive};
use hive_graph::{CsrView, Graph, NodeId, UndirectedCsr};
use hive_rng::Rng;
use hive_sim_harness::oracle::fingerprint;
use hive_store::{GraphView, StoredTriple, Term, TripleStore};
use std::sync::Arc;

// ---- layer 1: GraphView::upsert vs GraphView::build -------------------

/// A small universe of terms so windows collide: re-weights of present
/// triples, self-loops, rows appearing between existing ones.
fn gen_entity(rng: &mut Rng) -> Term {
    Term::iri(format!("e{}", rng.gen_range(0..10u32)))
}

fn gen_pred(rng: &mut Rng) -> Term {
    Term::iri(format!("p{}", rng.gen_range(0..3u32)))
}

fn gen_weight(rng: &mut Rng) -> f64 {
    rng.gen_range(1..=100u32) as f64 / 100.0
}

/// Inserts one random triple into `st` and returns it as a view upsert,
/// ids read from the store's dictionary. Literal objects are mixed in,
/// so the view must keep skipping attribute triples exactly like the
/// cold scan.
fn upsert(st: &mut TripleStore, rng: &mut Rng) -> Result<StoredTriple, String> {
    let (s, p) = (gen_entity(rng), gen_pred(rng));
    let (o, weight) = match rng.gen_range(0..4u32) {
        0 => (Term::str(format!("label{}", rng.gen_range(0..4u32))), 1.0),
        _ => (gen_entity(rng), gen_weight(rng)),
    };
    st.insert(s.clone(), p.clone(), o.clone(), weight).map_err(|e| e.to_string())?;
    let id = |t: &Term| st.dict().get(t).ok_or_else(|| format!("{t:?} not interned"));
    Ok(StoredTriple { s: id(&s)?, p: id(&p)?, o: id(&o)?, weight })
}

/// After every window of upserts, the view moved forward with
/// `GraphView::upsert` equals a cold `GraphView::build` over a store
/// given the same inserts, bit for bit, and so does `from_upserts` over
/// the whole insert sequence. Windows of 0 to 29 triples both splice
/// and pass the 16-triple floor that re-assembles the view.
#[test]
fn apply_delta_is_bitwise_identical_to_cold_rebuild() {
    check("delta::view_patch_equals_rebuild", DEFAULT_CASES, |rng| {
        let mut st = TripleStore::new();
        let mut all = Vec::new();
        for _ in 0..rng.gen_range(0..40usize) {
            all.push(upsert(&mut st, rng)?);
        }
        let mut view = GraphView::build(&st);
        // Several windows against the same live view: the state after
        // window k is the starting point of window k+1, so errors would
        // compound and surface.
        for _ in 0..rng.gen_range(1..4usize) {
            let window = (0..rng.gen_range(0..30usize))
                .map(|_| upsert(&mut st, rng))
                .collect::<Result<Vec<_>, _>>()?;
            view.upsert(st.dict(), &window);
            all.extend(window);
            let cold = GraphView::build(&st);
            if let Some(diff) = view.bitwise_diff(&cold) {
                return Err(format!("upserted view diverged from cold rebuild: {diff}"));
            }
            if let Some(diff) = GraphView::from_upserts(st.dict(), &all).bitwise_diff(&cold) {
                return Err(format!("from_upserts diverged from cold rebuild: {diff}"));
            }
        }
        Ok(())
    });
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
    let before = hive_obs::snapshot().counter("core.kn.patch");
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
            let cold = Epoch::rebuild(Arc::new(hive.db().clone()));
            let diff = fingerprint(&hive).diff(&fingerprint(&cold));
            prop_ensure!(
                diff.is_empty(),
                "delta-patched facade diverged from cold platform: {diff:?}"
            );
        }
        Ok(())
    });
    let after = hive_obs::snapshot().counter("core.kn.patch");
    assert!(
        after > before,
        "the knowledge snapshot must have been delta-patched at least once \
         ({before} -> {after}); otherwise this test only compared rebuilds"
    );
}

// ---- layer 3: UndirectedCsr::patch vs CsrView::build of a Graph --------

/// One random undirected edge among `n` nodes: endpoints collide often
/// (re-weights of present edges, repeats within a window, self-loops).
fn gen_edge(n: u32, rng: &mut Rng) -> (NodeId, NodeId, f64) {
    let a = NodeId(rng.gen_range(0..n));
    let b = NodeId(rng.gen_range(0..n));
    (a, b, gen_weight(rng))
}

/// `csr` equals `CsrView::build(g)` bit for bit, and each row's raw
/// weights are `g`'s in-edge weights by bits.
fn csr_matches_graph(csr: &UndirectedCsr, g: &Graph) -> Result<(), String> {
    if let Some(diff) = csr.view().bitwise_diff(&CsrView::build(g)) {
        return Err(diff);
    }
    for v in g.nodes() {
        let bits = |w: f64| w.to_bits();
        let row = csr.in_edges(v).map(|e| (e.neighbor, bits(e.weight)));
        if !row.eq(g.in_edges(v).map(|e| (e.neighbor, bits(e.weight)))) {
            return Err(format!("raw weights of row {v:?} differ"));
        }
    }
    Ok(())
}

/// After every window of 0 to 29 undirected edges on up to 12 nodes,
/// the patched CSR, and the cold build of all edges so far, equal
/// `CsrView::build` of a `Graph` given the same `add_undirected_edge`
/// calls. Nodes may have no edge at all; windows may be empty, repeat an
/// edge, add self-loops, and hold as many edges as the graph they patch.
/// Small and bulk windows must both have run.
#[test]
fn patched_unified_csr_is_bitwise_identical_to_the_graph_csr() {
    let (mut small, mut bulk) = (0, 0);
    check("delta::unified_csr_patch_equals_graph_csr", DEFAULT_CASES, |rng| {
        unified_csr_case(rng, &mut small, &mut bulk)
    });
    assert!(small > 0 && bulk > 0, "{small} small windows patched, {bulk} bulk ones");
}

/// One case of the layer-3 property, counting the non-empty windows
/// smaller than the CSR they patch and those at least as large.
fn unified_csr_case(rng: &mut Rng, small: &mut usize, bulk: &mut usize) -> Result<(), String> {
    let n = rng.gen_range(1..=12u32);
    let mut g = Graph::new();
    for i in 0..n {
        g.add_node(format!("n{i}"));
    }
    let mut all = Vec::new();
    for _ in 0..rng.gen_range(0..40usize) {
        all.push(gen_edge(n, rng));
    }
    for &(a, b, w) in &all {
        g.add_undirected_edge(a, b, w);
    }
    let mut csr = UndirectedCsr::build(n as usize, all.iter().copied());
    csr_matches_graph(&csr, &g).map_err(|e| format!("cold build: {e}"))?;
    // Windows against the same live CSR, each from a copy (as a
    // pinned epoch forces), so errors compound and surface.
    for _ in 0..rng.gen_range(1..4usize) {
        let len = rng.gen_range(0..30usize);
        let window: Vec<_> = (0..len).map(|_| gen_edge(n, rng)).collect();
        for &(a, b, w) in &window {
            g.add_undirected_edge(a, b, w);
        }
        csr = csr.clone();
        if window.len() >= csr.edge_count() {
            *bulk += 1;
        } else if !window.is_empty() {
            *small += 1;
        }
        csr.patch(&window);
        all.extend(window);
        csr_matches_graph(&csr, &g).map_err(|e| format!("patched: {e}"))?;
        let cold = UndirectedCsr::build(n as usize, all.iter().copied());
        csr_matches_graph(&cold, &g).map_err(|e| format!("cold build: {e}"))?;
    }
    Ok(())
}
