//! Recovery-equivalence fingerprints and differential oracles.
//!
//! A [`Fingerprint`] is an ordered list of labeled strings capturing a
//! fixed battery of query results. Floats are rendered via
//! [`f64::to_bits`], so two fingerprints compare bit-exactly — "close
//! enough" never passes. Map-shaped results are sorted before
//! rendering, because equality of content must not depend on hash
//! iteration order.

use hive_core::clock::Timestamp;
use hive_core::discover::DiscoverConfig;
use hive_core::evidence::{self, RelationshipExplanation};
use hive_core::history::HistoryQuery;
use hive_core::ids::UserId;
use hive_core::knowledge::KnowledgeNetwork;
use hive_core::peers::PeerRecConfig;
use hive_core::reports::ReportScope;
use hive_core::{Hive, PprCache};
use hive_graph::PprConfig;
use hive_store::{GraphView, PathQuery, Term};
use std::collections::HashMap;

/// Hex rendering of the exact bit pattern of a float.
pub fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// An ordered battery of labeled query results.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// `(label, rendered result)` pairs in battery order.
    pub entries: Vec<(String, String)>,
}

impl Fingerprint {
    fn push(&mut self, label: impl Into<String>, value: impl Into<String>) {
        self.entries.push((label.into(), value.into()));
    }

    /// Human-readable differences between two fingerprints (empty =
    /// equivalent).
    pub fn diff(&self, other: &Fingerprint) -> Vec<String> {
        let mut out = Vec::new();
        if self.entries.len() != other.entries.len() {
            out.push(format!(
                "battery size mismatch: {} vs {} entries",
                self.entries.len(),
                other.entries.len()
            ));
        }
        for ((la, va), (lb, vb)) in self.entries.iter().zip(&other.entries) {
            if la != lb {
                out.push(format!("battery order diverged: `{la}` vs `{lb}`"));
            } else if va != vb {
                out.push(format!("`{la}`: {} != {}", clip(va), clip(vb)));
            }
        }
        out
    }
}

fn clip(s: &str) -> String {
    const MAX: usize = 160;
    if s.len() <= MAX {
        return s.to_string();
    }
    let mut cut = MAX;
    while cut > 0 && !s.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}…", &s[..cut])
}

/// Deterministic probe set: first, middle, and last user plus the
/// first co-author pair (battery must be fixed, not sampled, so the
/// pre- and post-crash instances answer the same questions).
fn probes(hive: &Hive) -> (Vec<UserId>, Option<(UserId, UserId)>) {
    let users = hive.db().user_ids();
    let mut probe = Vec::new();
    for idx in [0, users.len() / 2, users.len().saturating_sub(1)] {
        if let Some(&u) = users.get(idx) {
            if !probe.contains(&u) {
                probe.push(u);
            }
        }
    }
    let mut pair = None;
    for p in hive.db().paper_ids() {
        if let Ok(paper) = hive.db().get_paper(p) {
            if paper.authors.len() >= 2 {
                pair = Some((paper.authors[0], paper.authors[1]));
                break;
            }
        }
    }
    if pair.is_none() && users.len() >= 2 {
        pair = Some((users[0], users[1]));
    }
    (probe, pair)
}

fn render_ppr(kn: &KnowledgeNetwork, ppr: &PprCache, u: UserId) -> String {
    let Some(node) = kn.unified.node(&u.iri()) else {
        return "absent".to_string();
    };
    let mut seeds = HashMap::new();
    seeds.insert(node, 1.0);
    let scores = ppr.scores(&kn.unified_csr, &seeds, PprConfig::default());
    let mut ranked: Vec<(String, f64)> = scores
        .iter()
        .enumerate()
        .map(|(i, &s)| (kn.unified.key(hive_graph::NodeId(i as u32)).to_string(), s))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(8);
    ranked
        .into_iter()
        .map(|(k, s)| format!("{k}={}", bits(s)))
        .collect::<Vec<_>>()
        .join(";")
}

fn render_explanation(exp: &RelationshipExplanation) -> String {
    let items: Vec<String> = exp
        .items
        .iter()
        .map(|i| format!("{:?}={}:{}", i.kind, bits(i.score), i.explanation))
        .collect();
    format!(
        "combined={} items=[{}] paths=[{}]",
        bits(exp.combined),
        items.join("|"),
        exp.paths.join("|")
    )
}

/// Ranked `rel:*` path query between two users over a fresh store
/// export and view — exercises the store/view layers directly, outside
/// the facade's generation cache.
fn render_paths(hive: &Hive, kn: &KnowledgeNetwork, a: UserId, b: UserId) -> String {
    let store = kn.to_store(hive.db());
    let view = GraphView::build(&store);
    let query = PathQuery::new(Term::iri(a.iri()), Term::iri(b.iri()))
        .max_hops(3)
        .top_k(3);
    match query.run_on(&store, &view) {
        Ok(paths) => paths
            .iter()
            .map(|p| format!("{}:{}", bits(p.score), p.explain(&store)))
            .collect::<Vec<_>>()
            .join("|"),
        Err(e) => format!("error: {e}"),
    }
}

/// Captures the full battery against a live facade.
// lint:root(determinism)
pub fn fingerprint(hive: &Hive) -> Fingerprint {
    let mut fp = Fingerprint::default();
    let db = hive.db();
    fp.push(
        "counts",
        format!(
            "users={} confs={} sessions={} papers={} presentations={} questions={} log={} now={}",
            db.user_ids().len(),
            db.conference_ids().len(),
            db.session_ids().len(),
            db.paper_ids().len(),
            db.presentation_ids().len(),
            db.question_ids().len(),
            db.activity_log().len(),
            db.now().0,
        ),
    );
    let (probe_users, pair) = probes(hive);
    let kn = hive.knowledge();
    let ppr = hive.ppr();
    for u in &probe_users {
        let u = *u;
        fp.push(format!("ppr:{}", u.iri()), render_ppr(&kn, &ppr, u));
        let peers: Vec<String> = hive
            .recommend_peers(u, PeerRecConfig::default())
            .iter()
            .map(|r| {
                let sessions: Vec<String> = r
                    .likely_sessions
                    .iter()
                    .map(|(s, w)| format!("{}={}", s.iri(), bits(*w)))
                    .collect();
                format!(
                    "{}={} reasons={} sessions=[{}]",
                    r.user.iri(),
                    bits(r.score),
                    r.reasons.len(),
                    sessions.join(",")
                )
            })
            .collect();
        fp.push(format!("peers:{}", u.iri()), peers.join("|"));
        let similar: Vec<String> = hive
            .similar_peers(u, 5)
            .iter()
            .map(|(v, s)| format!("{}={}", v.iri(), bits(*s)))
            .collect();
        fp.push(format!("similar:{}", u.iri()), similar.join("|"));
        let digest = hive.digest(u, Timestamp(0));
        let mut counts: Vec<String> = digest
            .counts
            // lint:allow(determinism-taint) -- rendered lines are sorted below
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        counts.sort();
        fp.push(
            format!("digest:{}", u.iri()),
            format!("updates={} {}", digest.updates.len(), counts.join(",")),
        );
        let hits: Vec<String> = hive
            .search(u, "tensor stream community detection", DiscoverConfig::default())
            .iter()
            .map(|h| {
                let (preview, concepts) = (&h.preview, h.key_concepts.join(","));
                format!("{:?}={}:{}:{preview:?}:{concepts}", h.resource, bits(h.score), h.title)
            })
            .collect();
        fp.push(format!("search:{}", u.iri()), hits.join("|"));
    }
    if let Some((a, b)) = pair {
        fp.push(
            format!("explain:{}:{}", a.iri(), b.iri()),
            render_explanation(&hive.explain_relationship(a, b)),
        );
        fp.push(format!("paths:{}:{}", a.iri(), b.iri()), render_paths(hive, &kn, a, b));
    }
    fp.push(
        "report",
        hive.update_report(&ReportScope::Platform, Timestamp(0), Timestamp(u64::MAX), 8)
            .render(),
    );
    let timeline: Vec<String> = hive
        .timeline(&[], 64)
        .iter()
        .map(|(t, counts)| {
            let mut cs: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
            cs.sort();
            format!("{}:[{}]", t.0, cs.join(","))
        })
        .collect();
    fp.push("timeline", timeline.join("|"));
    let history: Vec<String> = hive
        .search_history(&HistoryQuery::new().limit(8), probe_users.first().copied())
        .iter()
        .map(|h| format!("{}:{}", bits(h.relevance), h.text))
        .collect();
    fp.push("history", history.join("|"));
    let trending: Vec<String> = hive
        .trending_sessions(Timestamp(0), hive.db().now(), 5)
        .iter()
        .map(|(s, w)| format!("{}={}", s.iri(), bits(*w)))
        .collect();
    fp.push("trending", trending.join("|"));
    // Secondary-index contents: a delta-patched index on the leader and
    // a replay-built index on a follower must digest identically (the
    // digest iterates BTreeMap postings, no hash order involved).
    fp.push("index", hive.indexes().digest());
    fp
}

/// Differential oracles: the same questions asked two ways must agree
/// bit-for-bit.
///
/// * **cached vs fresh** — the facade's generation-cached relationship
///   store/view against a from-scratch export and
///   [`GraphView::build`].
/// * **delta vs rebuild** — the live facade, whose kn/rel snapshots
///   have been delta-patched in place across the whole workload so
///   far, against a cold platform built from a clone of the same
///   database; the full fingerprint battery must match bit-for-bit.
// lint:root(determinism)
pub fn differential_check(hive: &Hive, pair: (UserId, UserId)) -> Vec<String> {
    let mut out = Vec::new();
    let db = hive.db();
    // Cached path: facade rel-snapshot (reused across calls within a
    // generation). Fresh path: explicit export + view build.
    let cached = render_explanation(&hive.explain_relationship(pair.0, pair.1));
    let kn = hive.knowledge();
    let store = kn.to_store(db);
    let view = GraphView::build(&store);
    let fresh = render_explanation(&evidence::explain_relationship_with_view(
        db, &kn, &store, &view, pair.0, pair.1, 3,
    ));
    if cached != fresh {
        out.push(format!(
            "cached relationship view diverges from fresh rebuild: {} != {}",
            clip(&cached),
            clip(&fresh)
        ));
    }
    // Delta-vs-rebuild: the live facade has been answering out of
    // snapshots patched forward by the delta log; a cold platform over
    // the same database rebuilds everything from scratch. The two must
    // be indistinguishable across the entire query battery.
    let cold = Hive::new(db.clone());
    for d in fingerprint(hive).diff(&fingerprint(&cold)) {
        out.push(format!("delta-maintained facade vs cold rebuild: {d}"));
    }
    out
}
