//! Recovery-equivalence fingerprints and differential oracles.
//!
//! [`fingerprint`] digests a fixed battery of query results through
//! [`crate::answers`], so two fingerprints compare bit-exactly and a
//! divergence names the read and the users it was asked for.

use crate::answers::{probe_users, Digest, Fingerprint};
use hive_core::clock::Timestamp;
use hive_core::discover::DiscoverConfig;
use hive_core::evidence;
use hive_core::history::HistoryQuery;
use hive_core::ids::UserId;
use hive_core::knowledge::KnowledgeNetwork;
use hive_core::peers::PeerRecConfig;
use hive_core::reports::ReportScope;
use hive_core::{Epoch, Hive, PprCache};
use hive_graph::PprConfig;
use hive_store::{GraphView, PathQuery, Term};
use std::collections::HashMap;
use std::sync::Arc;

/// The first co-author pair, else the first two users: the pair the
/// explanation and path reads are asked for.
fn probe_pair(hive: &Hive) -> Option<(UserId, UserId)> {
    for p in hive.db().paper_ids() {
        if let Ok(paper) = hive.db().get_paper(p) {
            if paper.authors.len() >= 2 {
                return Some((paper.authors[0], paper.authors[1]));
            }
        }
    }
    match hive.db().user_ids()[..] {
        [a, b, ..] => Some((a, b)),
        _ => None,
    }
}

/// The user's eight highest PPR scores with their nodes' IRIs, or
/// `None` when the user is not in the unified graph.
fn ppr_top(kn: &KnowledgeNetwork, ppr: &PprCache, u: UserId) -> Option<Vec<(String, f64)>> {
    let node = kn.layout.user(u)?;
    let mut seeds = HashMap::new();
    seeds.insert(node, 1.0);
    let scores = ppr.scores(kn.csr.view(), &seeds, PprConfig::default());
    let mut ranked: Vec<(String, f64)> = scores
        .iter()
        .enumerate()
        .filter_map(|(i, &s)| Some((kn.layout.iri(hive_graph::NodeId(i as u32))?, s)))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(8);
    Some(ranked)
}

/// Captures the full battery against a live facade.
// lint:root(determinism)
pub fn fingerprint(hive: &Hive) -> Fingerprint {
    let mut fp = Fingerprint::default();
    let db = hive.db();
    let counts = [
        db.user_ids().len(),
        db.conference_ids().len(),
        db.session_ids().len(),
        db.paper_ids().len(),
        db.presentation_ids().len(),
        db.question_ids().len(),
        db.activity_log().len(),
    ];
    fp.push("counts", &counts[..]);
    fp.push("now", &db.now());
    let probes = probe_users(db);
    let kn = hive.knowledge();
    let ppr = hive.ppr();
    for &u in &probes {
        let iri = u.iri();
        match ppr_top(&kn, &ppr, u) {
            Some(top) => fp.push(format!("ppr:{iri}"), &top),
            None => fp.push(format!("ppr:{iri}"), "absent"),
        }
        fp.push(format!("peers:{iri}"), &hive.recommend_peers(u, PeerRecConfig::default()));
        fp.push(format!("similar:{iri}"), &hive.similar_peers(u, 5));
        fp.push(format!("digest:{iri}"), &hive.digest(u, Timestamp(0)));
        let query = "tensor stream community detection";
        fp.push(format!("search:{iri}"), &hive.search(u, query, DiscoverConfig::default()));
    }
    if let Some((a, b)) = probe_pair(hive) {
        let pair = format!("{}:{}", a.iri(), b.iri());
        fp.push(format!("explain:{pair}"), &hive.explain_relationship(a, b));
        // Ranked `rel:*` paths over a fresh store export and view: the
        // store and view layers directly, outside the facade's cache.
        let store = kn.to_store(db);
        let view = GraphView::build(&store);
        let query = PathQuery::new(Term::iri(a.iri()), Term::iri(b.iri())).max_hops(3).top_k(3);
        match query.run_on(store.dict(), &view) {
            Ok(paths) => {
                let ranked: Vec<(f64, String)> =
                    paths.iter().map(|p| (p.score, p.explain(store.dict()))).collect();
                fp.push(format!("paths:{pair}"), &ranked);
            }
            Err(e) => fp.push(format!("paths:{pair}"), format!("error: {e}").as_str()),
        }
    }
    let report = hive.update_report(&ReportScope::Platform, Timestamp(0), Timestamp(u64::MAX), 8);
    fp.push("report", &report.render());
    fp.push("timeline", &hive.timeline(&[], 64));
    let history = HistoryQuery::new().limit(8);
    fp.push("history", &hive.search_history(&history, probes.first().copied()));
    fp.push("trending", &hive.trending_sessions(Timestamp(0), db.now(), 5));
    // Secondary-index contents: the index kept at each write on the
    // leader, a follower's and a cold replay must digest identically.
    fp.push("index", &hive.indexes().digest());
    fp
}

/// Differential oracles: the same questions asked two ways must agree
/// bit-for-bit.
///
/// * **cached vs fresh** — the facade's generation-cached relationship
///   dictionary and view, built by interning the `rel:*` export and
///   patched forward through the journal, against a fresh store export
///   ([`KnowledgeNetwork::to_store`]) flattened by
///   [`GraphView::build`], which shares no code with the served build
///   past the export's triple list.
/// * **delta vs rebuild** — the live facade, whose kn/rel snapshots
///   have been delta-patched in place across the whole workload so
///   far, against a cold [`Epoch::rebuild`] of a clone of the same
///   database; the full fingerprint battery must match bit-for-bit.
// lint:root(determinism)
pub fn differential_check(hive: &Hive, pair: (UserId, UserId)) -> Vec<String> {
    let mut out = Vec::new();
    let db = hive.db();
    // Cached path: facade rel-snapshot (reused across calls within a
    // generation). Fresh path: a store export and a view built from it.
    let cached = hive.explain_relationship(pair.0, pair.1);
    let kn = hive.knowledge();
    let store = kn.to_store(db);
    let view = GraphView::build(&store);
    let fresh =
        evidence::explain_relationship_with_view(db, &kn, store.dict(), &view, pair.0, pair.1, 3);
    if Digest::of(&cached) != Digest::of(&fresh) {
        out.push(format!(
            "cached relationship view diverges from fresh rebuild for {} and {}",
            pair.0.iri(),
            pair.1.iri()
        ));
    }
    // Delta-vs-rebuild: the live facade has been answering out of
    // snapshots patched forward by the delta log; a cold platform over
    // the same database replays its indexes and rebuilds every tier
    // from scratch. The two must be indistinguishable across the
    // entire query battery.
    let cold = Epoch::rebuild(Arc::new(db.clone()));
    for d in fingerprint(hive).diff(&fingerprint(&cold)) {
        out.push(format!("delta-maintained facade vs cold rebuild: {d}"));
    }
    out
}
