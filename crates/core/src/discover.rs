//! Context-aware resource discovery, search, ranking, and preview
//! (paper §2.3, Table 1 "Discovery, context- and
//! collaborative-recommendation and preview services").
//!
//! "Hive relies on the underlying integrated context network to filter,
//! summarize, and rank alternatives ... Context-aware ranking and preview
//! services include (a) relevant snippet extraction from documents,
//! (b) key concept extraction for automated annotations, and (c) content
//! summarization."
//!
//! A search scores every resource (papers, presentations, sessions and,
//! unless excluded, user profiles) by blending three signals: query-text
//! match, similarity to the active context vector, and graph activation
//! propagated from the context seeds over the unified knowledge network.

use crate::context::ActivityContext;
use crate::db::HiveDb;
use crate::ids::{PaperId, PresentationId, SessionId, UserId};
use crate::knowledge::KnowledgeNetwork;
use crate::ppr::PprCache;
use hive_graph::{NodeId, PprConfig};
use hive_text::snippet::{extract_snippet_ids, SnippetConfig, SnippetContext};
use hive_text::tfidf::{cosine_of_dot, Gather};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A searchable resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// A paper.
    Paper(PaperId),
    /// A presentation.
    Presentation(PresentationId),
    /// A session.
    Session(SessionId),
    /// A researcher.
    User(UserId),
}

impl Resource {
    /// Knowledge-network IRI of the resource (its `Display` form).
    pub fn iri(&self) -> String {
        self.to_string()
    }

    /// Kind label for display.
    pub fn kind(&self) -> &'static str {
        match self {
            Resource::Paper(_) => "paper",
            Resource::Presentation(_) => "presentation",
            Resource::Session(_) => "session",
            Resource::User(_) => "user",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Paper(p) => p.fmt(f),
            Resource::Presentation(p) => p.fmt(f),
            Resource::Session(s) => s.fmt(f),
            Resource::User(u) => u.fmt(f),
        }
    }
}

/// One ranked search hit with its preview.
#[derive(Clone, Debug)]
pub struct SearchHit {
    /// What was found.
    pub resource: Resource,
    /// Blended relevance score.
    pub score: f64,
    /// Display title.
    pub title: String,
    /// Context-aware snippet, if the resource has body text.
    pub preview: Option<String>,
    /// Key concepts extracted from the resource text.
    pub key_concepts: Vec<String>,
}

/// Search parameters. Build with [`DiscoverConfig::defaults`] and the
/// chainable `with_*` setters:
///
/// ```
/// use hive_core::discover::DiscoverConfig;
/// let cfg = DiscoverConfig::defaults().with_top_k(15).with_include_users(false);
/// assert_eq!(cfg.common.top_k, 15);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct DiscoverConfig {
    /// Shared result-count / context fields (`common.top_k` = hits to
    /// return).
    pub common: crate::config::CommonConfig,
    /// Weight of the query-match signal.
    pub query_weight: f64,
    /// Weight of the context-similarity signal.
    pub context_weight: f64,
    /// Weight of the graph-activation signal.
    pub graph_weight: f64,
    /// Include user profiles among results.
    pub include_users: bool,
    /// Key concepts per preview.
    pub concepts_per_hit: usize,
}

impl DiscoverConfig {
    /// The documented baseline: 10 hits, signal weights 0.5 query /
    /// 0.3 context / 0.2 graph, user profiles included, 3 key concepts
    /// per preview.
    pub fn defaults() -> Self {
        DiscoverConfig {
            common: crate::config::CommonConfig::defaults(10),
            query_weight: 0.5,
            context_weight: 0.3,
            graph_weight: 0.2,
            include_users: true,
            concepts_per_hit: 3,
        }
    }

    /// Sets the number of hits to return.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.common.top_k = k;
        self
    }

    /// Sets the activity-context construction parameters.
    pub fn with_context(mut self, cfg: crate::context::ContextConfig) -> Self {
        self.common.context = cfg;
        self
    }

    /// Sets the query-match signal weight.
    pub fn with_query_weight(mut self, w: f64) -> Self {
        self.query_weight = w;
        self
    }

    /// Sets the context-similarity signal weight.
    pub fn with_context_weight(mut self, w: f64) -> Self {
        self.context_weight = w;
        self
    }

    /// Sets the graph-activation signal weight.
    pub fn with_graph_weight(mut self, w: f64) -> Self {
        self.graph_weight = w;
        self
    }

    /// Includes or excludes user profiles among results.
    pub fn with_include_users(mut self, yes: bool) -> Self {
        self.include_users = yes;
        self
    }

    /// Sets the number of key concepts extracted per preview.
    pub fn with_concepts_per_hit(mut self, n: usize) -> Self {
        self.concepts_per_hit = n;
        self
    }
}

impl Default for DiscoverConfig {
    fn default() -> Self {
        Self::defaults()
    }
}

/// The text a resource's preview and key concepts are drawn from.
pub(crate) fn resource_text(db: &HiveDb, r: Resource) -> String {
    match r {
        Resource::Paper(p) => db.get_paper(p).map(|x| x.text()).unwrap_or_default(),
        Resource::Presentation(p) => db
            .get_presentation(p)
            .map(|x| x.slides_text.clone())
            .unwrap_or_default(),
        Resource::Session(s) => db.get_session(s).map(|x| x.text()).unwrap_or_default(),
        Resource::User(u) => db.get_user(u).map(|x| x.profile_text()).unwrap_or_default(),
    }
}

fn resource_title(db: &HiveDb, r: Resource) -> String {
    match r {
        Resource::Paper(p) => db.get_paper(p).map(|x| x.title.clone()).unwrap_or_default(),
        Resource::Presentation(p) => db
            .get_presentation(p)
            .ok()
            .and_then(|x| db.get_paper(x.paper).ok())
            .map(|x| format!("slides: {}", x.title))
            .unwrap_or_default(),
        Resource::Session(s) => db.get_session(s).map(|x| x.title.clone()).unwrap_or_default(),
        Resource::User(u) => db.get_user(u).map(|x| x.name.clone()).unwrap_or_default(),
    }
}

/// The PPR vector over the unified graph from the context seeds and its
/// maximum (at least `f64::MIN_POSITIVE`), or `None` when no seed is a
/// graph node.
fn graph_activation(
    kn: &KnowledgeNetwork,
    ppr_cache: &PprCache,
    ctx: &ActivityContext,
) -> Option<(Arc<Vec<f64>>, f64)> {
    let mut seeds: HashMap<NodeId, f64> = HashMap::new();
    // lint:allow(determinism-taint) -- distinct keys hit distinct nodes; PPR sorts seeds
    for (key, &mass) in &ctx.seeds {
        if let Some(n) = kn.layout.node(key) {
            *seeds.entry(n).or_insert(0.0) += mass;
        }
    }
    if seeds.is_empty() {
        return None;
    }
    let ppr = ppr_cache.scores(kn.csr.view(), &seeds, PprConfig::default());
    let max = ppr.iter().cloned().fold(0.0f64, f64::max).max(f64::MIN_POSITIVE);
    Some((ppr, max))
}

/// Context-aware search. `query` may be empty, in which case ranking is
/// purely contextual (the recommendation mode of Table 1: "request
/// resource recommendations based on context").
///
/// Every resource is a candidate: the rows of the content matrix, that
/// is papers, presentations, sessions, then users when `include_users`
/// is set, each in id order. The query and context vectors are scattered
/// once, and one gather pass over the rows' entries scores every
/// candidate as a number, with the bits of a merge-join cosine. Titles,
/// previews and key concepts are built only for the `top_k` hits
/// returned; a preview scores its windows over the row's stored term
/// ids.
pub fn search(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    ppr_cache: &PprCache,
    ctx: &ActivityContext,
    query: &str,
    cfg: DiscoverConfig,
) -> Vec<SearchHit> {
    let qvec = kn.corpus.vectorize_known(query);
    let (qnorm, cnorm) = (qvec.norm(), ctx.vector.norm());
    let profile = Gather::new([qvec.entries(), ctx.vector.entries()]);
    // A resource's activation is its PPR score over the maximum, 0 off
    // the graph (a presentation has no node).
    let ppr = graph_activation(kn, ppr_cache, ctx);
    let activation = |r: Resource| -> f64 {
        let Some((ppr, max)) = &ppr else { return 0.0 };
        match kn.layout.resource(r).map(|n| ppr[n.index()]) {
            Some(p) if p > 0.0 => p / max,
            _ => 0.0,
        }
    };
    let content = &kn.content;
    let rows = if cfg.include_users { content.rows() } else { content.user_rows().start };
    let mut scored: Vec<(Resource, f64)> = (0..rows)
        .filter_map(|row| {
            let r = content.resource(row)?;
            let norm = content.norm(row);
            let [q, c] = profile.dots(content.entries(row));
            let (q, c) = (cosine_of_dot(q, qnorm, norm), cosine_of_dot(c, cnorm, norm));
            let a = activation(r);
            let score = cfg.query_weight * q + cfg.context_weight * c + cfg.graph_weight * a;
            (score > 0.0).then_some((r, score))
        })
        .collect();
    let order =
        |x: &(Resource, f64), y: &(Resource, f64)| y.1.total_cmp(&x.1).then_with(|| x.0.cmp(&y.0));
    let k = cfg.common.top_k;
    if k < scored.len() {
        scored.select_nth_unstable_by(k, order);
        scored.truncate(k);
    }
    scored.sort_by(order);
    let context = SnippetContext::new(
        query.split_whitespace().chain(ctx.terms.iter().map(String::as_str)),
    )
    .ids(|t| kn.corpus.lookup(t));
    scored
        .into_iter()
        .map(|(r, score)| {
            let mut hit = SearchHit {
                resource: r,
                score,
                title: resource_title(db, r),
                preview: None,
                key_concepts: Vec::new(),
            };
            let text = resource_text(db, r);
            if !text.is_empty() {
                let row = content.row(r);
                let (tokens, ends) = row.map(|row| content.text(row)).unwrap_or_default();
                hit.preview =
                    extract_snippet_ids(&text, tokens, ends, &context, SnippetConfig::default())
                        .filter(|s| s.score > 0.0)
                        .map(|s| s.text);
                hit.key_concepts = kn.key_concepts(r, &text, cfg.concepts_per_hit);
            }
            hit
        })
        .collect()
}

/// Pure contextual recommendation (empty query).
pub fn recommend_resources(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    ppr_cache: &PprCache,
    ctx: &ActivityContext,
    cfg: DiscoverConfig,
) -> Vec<SearchHit> {
    // With no query, fold its weight into the context signal.
    let cfg = DiscoverConfig {
        query_weight: 0.0,
        context_weight: cfg.context_weight + cfg.query_weight,
        ..cfg
    };
    search(db, kn, ppr_cache, ctx, "", cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{build_context, ContextConfig};
    use crate::model::*;

    fn world() -> (HiveDb, Vec<UserId>, Vec<SessionId>, Vec<PaperId>) {
        let mut db = HiveDb::new();
        let users = vec![
            db.add_user(User::new("Zach", "ASU").with_interests(vec!["tensor streams".into()])),
            db.add_user(User::new("Bob", "MIT").with_interests(vec!["transactions".into()])),
        ];
        let conf = db.add_conference(Conference::new("EDBT", 2013, "Genoa"));
        let sessions = vec![
            db.add_session(
                Session::new(conf, "Tensor Streams", "R1")
                    .with_topics(vec!["tensor stream monitoring sketches".into()]),
            )
            .unwrap(),
            db.add_session(
                Session::new(conf, "Transactions", "R2")
                    .with_topics(vec!["transaction concurrency control".into()]),
            )
            .unwrap(),
        ];
        let papers = vec![
            db.add_paper(
                Paper::new("Compressed tensor monitoring", vec![users[0]])
                    .with_abstract(
                        "Compressed sensing sketches monitor tensor streams. \
                         Randomized ensembles detect structural changes quickly.",
                    )
                    .at_venue(conf),
            )
            .unwrap(),
            db.add_paper(
                Paper::new("Snapshot isolation revisited", vec![users[1]])
                    .with_abstract(
                        "Transaction processing with snapshot isolation. \
                         Concurrency control for modern hardware.",
                    )
                    .at_venue(conf),
            )
            .unwrap(),
        ];
        (db, users, sessions, papers)
    }

    #[test]
    fn query_match_ranks_topical_resources_first() {
        let (db, users, _, papers) = world();
        let kn = KnowledgeNetwork::build(&db);
        let ctx = build_context(&db, &kn, users[0], ContextConfig::default());
        let hits = search(&db, &kn, &PprCache::new(), &ctx, "tensor stream sketches", DiscoverConfig::default());
        assert!(!hits.is_empty());
        let tensor_pos = hits
            .iter()
            .position(|h| h.resource == Resource::Paper(papers[0]))
            .expect("tensor paper found");
        let txn_pos = hits.iter().position(|h| h.resource == Resource::Paper(papers[1]));
        if let Some(tp) = txn_pos {
            assert!(tensor_pos < tp, "tensor paper before transaction paper");
        }
    }

    #[test]
    fn previews_and_concepts_attached() {
        let (db, users, ..) = world();
        let kn = KnowledgeNetwork::build(&db);
        let ctx = build_context(&db, &kn, users[0], ContextConfig::default());
        let hits = search(&db, &kn, &PprCache::new(), &ctx, "compressed sensing", DiscoverConfig::default());
        let paper_hit = hits
            .iter()
            .find(|h| matches!(h.resource, Resource::Paper(_)))
            .expect("paper hit");
        assert!(paper_hit.preview.is_some(), "snippet preview generated");
        assert!(
            paper_hit
                .preview
                .as_deref()
                .map(|p| p.to_lowercase().contains("compressed"))
                .unwrap_or(false),
            "snippet covers the query: {:?}",
            paper_hit.preview
        );
        assert!(!paper_hit.key_concepts.is_empty(), "key concepts extracted");
        assert!(!paper_hit.title.is_empty());
    }

    #[test]
    fn context_steers_empty_query_recommendations() {
        let (mut db, users, sessions, papers) = world();
        // Zach's active pad holds the transactions session: context flips.
        let pad = db.create_workpad(users[0], "txn").unwrap();
        db.workpad_add(users[0], pad, WorkpadItem::Session(sessions[1])).unwrap();
        db.workpad_add(users[0], pad, WorkpadItem::Paper(papers[1])).unwrap();
        let kn = KnowledgeNetwork::build(&db);
        let ctx = build_context(&db, &kn, users[0], ContextConfig::default());
        let hits = recommend_resources(&db, &kn, &PprCache::new(), &ctx, DiscoverConfig::default());
        let txn = hits
            .iter()
            .position(|h| h.resource == Resource::Session(sessions[1]))
            .expect("txn session recommended");
        let tensor = hits.iter().position(|h| h.resource == Resource::Session(sessions[0]));
        if let Some(tp) = tensor {
            assert!(txn < tp, "workpad context must dominate profile interests");
        }
    }

    #[test]
    fn user_inclusion_toggle() {
        let (db, users, ..) = world();
        let kn = KnowledgeNetwork::build(&db);
        let ctx = build_context(&db, &kn, users[0], ContextConfig::default());
        let with = search(&db, &kn, &PprCache::new(), &ctx, "tensor", DiscoverConfig::default());
        let without = search(
            &db,
            &kn,
            &PprCache::new(),
            &ctx,
            "tensor",
            DiscoverConfig::defaults().with_include_users(false),
        );
        assert!(without.iter().all(|h| !matches!(h.resource, Resource::User(_))));
        assert!(with.len() >= without.len());
    }

    #[test]
    fn top_k_and_ordering() {
        let (db, users, ..) = world();
        let kn = KnowledgeNetwork::build(&db);
        let ctx = build_context(&db, &kn, users[0], ContextConfig::default());
        let hits = search(
            &db,
            &kn,
            &PprCache::new(),
            &ctx,
            "tensor",
            DiscoverConfig::defaults().with_top_k(2),
        );
        assert!(hits.len() <= 2);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
