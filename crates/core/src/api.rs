//! The `Hive` service facade — every service of the paper's Table 1
//! behind one typed API.
//!
//! | Table 1 row | Methods |
//! |---|---|
//! | Concept map & personalization | [`Hive::bootstrap_concepts`], [`Hive::activity_context`] |
//! | Peer network services | [`Hive::recommend_peers`], [`Hive::similar_peers`], [`Hive::request_connection`], [`Hive::respond_connection`], [`Hive::follow`] |
//! | Discovery / recommendation / preview | [`Hive::search`], [`Hive::recommend_resources`], [`Hive::explain_relationship`], [`Hive::discover_communities`], [`Hive::collaborative_recommendations`], [`Hive::update_report`] |
//! | Personal activity history | [`Hive::search_history`], [`Hive::timeline`] |
//!
//! The facade owns the [`HiveDb`], whose mutators keep its
//! [`DbIndexes`] current at every write, and three structures derived
//! from it (the [`KnowledgeNetwork`], the relationship-graph snapshot
//! and the [`PprCache`]), each in a generation-stamped tier that one
//! protocol keeps current on read (`tier.rs`): a hit, a re-stamp when
//! no journaled delta affects the tier, an in-place patch, or a
//! rebuild. Mutations therefore need no explicit invalidation.
//!
//! Each read service is written once, here. A published
//! [`crate::serve::Epoch`] is a pinned copy of this facade — the
//! database cloned at one generation, each tier slot holding the stamp
//! and `Arc` the writer's tier had at publish — and derefs to it, so a
//! served read runs the same method and every tier probe is a hit.
//!
//! Every public service entry point routes through the instrumented
//! [`Hive::service`] / [`Hive::service_mut`] choke point (enforced by
//! lint rule R7): one place opens the `hive-obs` span, stamps logical
//! enter/exit ticks, and bumps the per-[`ServiceKind`] counters — and
//! the one place where admission control would later live. Observability
//! is recording-only: with `HIVE_OBS=off` (the default) the choke point
//! is a plain closure call and results are bit-identical to `full`.

use crate::clock::Timestamp;
use crate::collab::CfModel;
use crate::communities::{self, Communities, Method};
use crate::context::{build_context, ActivityContext, ContextConfig};
use crate::db::index::DbIndexes;
use crate::db::HiveDb;
use crate::discover::{self, DiscoverConfig, Resource, SearchHit};
use crate::error::Result;
use crate::evidence::{self, RelationshipExplanation};
use crate::feed::{self, FeedDigest, Update};
use crate::history::{self, HistoryHit, HistoryQuery};
use crate::ids::*;
use crate::knowledge::KnowledgeNetwork;
use crate::model::{Paper, Presentation, QaTarget, User, WorkpadItem};
use crate::peers::{self, PeerRecConfig, PeerRecommendation};
use crate::ppr::PprCache;
use crate::reports::{self, ReportScope, UpdateReport};
use crate::tier::{RelSnapshot, Tier};
use hive_concept::{bootstrap_concept_map, BootstrapConfig, ConceptMap};
use hive_obs::ServiceKind;
use std::collections::HashMap;
use std::sync::Arc;

/// The Hive platform facade.
pub struct Hive {
    db: HiveDb,
    kn: Tier<KnowledgeNetwork>,
    rel: Tier<RelSnapshot>,
    ppr: Tier<PprCache>,
}

impl Hive {
    /// Wraps a (possibly pre-populated) platform database.
    pub fn new(db: HiveDb) -> Self {
        Hive { db, kn: Tier::new(), rel: Tier::new(), ppr: Tier::new() }
    }

    /// Read access to the platform database.
    pub fn db(&self) -> &HiveDb {
        &self.db
    }

    /// Write access to the database. The derived tiers are
    /// generation-stamped, so mutations need no explicit invalidation:
    /// the next read moves each tier forward through
    /// [`HiveDb::deltas_since`] (or rebuilds it).
    ///
    /// Internal plumbing: external callers should use the typed
    /// mutation methods ([`Hive::add_user`], [`Hive::workpad_note`],
    /// [`Hive::advance_clock`], ...), which route through the
    /// instrumented choke point.
    // lint:mutator(HiveDb)
    #[doc(hidden)]
    pub fn db_mut(&mut self) -> &mut HiveDb {
        &mut self.db
    }

    /// Runs a read-only Table-1 service through the instrumented choke
    /// point: opens the service span at the current logical tick, bumps
    /// the per-service call counter, runs `f`, and closes the span.
    /// Durations are *logical* ticks from the injectable clock (lint R3),
    /// so recorded values are deterministic for a given workload.
    pub fn service<T>(&self, kind: ServiceKind, f: impl FnOnce(&Self) -> T) -> T {
        let token = hive_obs::service_enter(kind, self.db.now().ticks());
        let out = f(self);
        hive_obs::service_exit(kind, token, self.db.now().ticks());
        out
    }

    /// Mutating variant of [`Hive::service`]: same span/counter
    /// protocol, `f` gets `&mut Hive` (and typically goes through
    /// [`Hive::db_mut`]).
    pub fn service_mut<T>(&mut self, kind: ServiceKind, f: impl FnOnce(&mut Self) -> T) -> T {
        let token = hive_obs::service_enter(kind, self.db.now().ticks());
        let out = f(self);
        hive_obs::service_exit(kind, token, self.db.now().ticks());
        out
    }

    /// The current knowledge network (`core.kn.*` tier).
    pub fn knowledge(&self) -> Arc<KnowledgeNetwork> {
        self.kn.get(&self.db, || KnowledgeNetwork::build(&self.db))
    }

    /// The current relationship-graph snapshot (`core.rel.*` tier), built
    /// cold from `kn` when the tier cannot move forward.
    pub(crate) fn relationship_graph(&self, kn: &KnowledgeNetwork) -> Arc<RelSnapshot> {
        self.rel.get(&self.db, || RelSnapshot::build(&self.db, kn))
    }

    /// The database's secondary indexes, current at every write.
    pub fn indexes(&self) -> &DbIndexes {
        self.db.indexes()
    }

    /// The current PPR memo (`core.ppr.*` tier), through which every
    /// PPR-backed service solves each seed distribution once per graph.
    pub fn ppr(&self) -> Arc<PprCache> {
        self.ppr.get(&self.db, PprCache::new)
    }

    /// A copy of the facade as it stands: the database cloned and each
    /// tier slot holding this one's stamp and `Arc`. The clone shares
    /// every arena chunk with this facade and copies the indexes, the
    /// log and the delta journal. A published epoch is one
    /// (`serve.rs`), so it answers with these same methods.
    pub(crate) fn pinned(&self) -> Hive {
        Hive {
            db: self.db.clone(),
            kn: self.kn.pinned(),
            rel: self.rel.pinned(),
            ppr: self.ppr.pinned(),
        }
    }

    // ---- concept map & personalization services ---------------------------

    /// Bootstraps a concept map from user-supplied documents (§2.1).
    pub fn bootstrap_concepts(&self, name: &str, documents: &[&str]) -> ConceptMap {
        self.service(ServiceKind::ConceptBootstrap, |_| {
            bootstrap_concept_map(name, documents, BootstrapConfig::default())
        })
    }

    /// The user's current activity context (active workpad + history).
    pub fn activity_context(&self, user: UserId) -> ActivityContext {
        self.service(ServiceKind::ActivityContext, |h| {
            build_context(&h.db, &h.knowledge(), user, ContextConfig::default())
        })
    }

    // ---- peer network services ---------------------------------------------

    /// Recommends new peers, contextualized by the active workpad.
    pub fn recommend_peers(&self, user: UserId, cfg: PeerRecConfig) -> Vec<PeerRecommendation> {
        self.service(ServiceKind::PeerRecommendation, |h| {
            let kn = h.knowledge();
            let ctx = build_context(&h.db, &kn, user, cfg.common.context);
            peers::recommend_peers(&h.db, &kn, &h.ppr(), user, &ctx, cfg)
        })
    }

    /// Locates peers with the most similar content profile.
    pub fn similar_peers(&self, user: UserId, k: usize) -> Vec<(UserId, f64)> {
        self.service(ServiceKind::SimilarPeers, |h| {
            let kn = h.knowledge();
            // `KnowledgeNetwork::user_similarity`: a user without a
            // vector is similar to no one.
            let Some(uv) = kn.user_vectors.get(&user) else {
                return Vec::new();
            };
            let mut out: Vec<(UserId, f64)> = h
                .db
                .user_ids()
                .into_iter()
                .filter(|&v| v != user)
                .filter_map(|v| {
                    let vv = kn.user_vectors.get(&v)?;
                    Some((v, uv.cosine(vv)))
                })
                .filter(|(_, s)| *s > 0.0)
                .collect();
            out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            out.truncate(k);
            out
        })
    }

    /// Predicts the sessions a researcher will likely attend.
    pub fn predict_sessions(&self, user: UserId, k: usize) -> Vec<(SessionId, f64)> {
        self.service(ServiceKind::SessionPrediction, |h| {
            peers::predict_sessions(&h.db, &h.knowledge(), user, k)
        })
    }

    /// Sends a connection request.
    pub fn request_connection(&mut self, from: UserId, to: UserId) -> Result<()> {
        self.service_mut(ServiceKind::ConnectionManagement, |h| {
            h.db_mut().request_connection(from, to)
        })
    }

    /// Accepts or declines a pending connection request.
    pub fn respond_connection(&mut self, to: UserId, from: UserId, accept: bool) -> Result<()> {
        self.service_mut(ServiceKind::ConnectionManagement, |h| {
            h.db_mut().respond_connection(to, from, accept)
        })
    }

    /// Starts following another researcher.
    pub fn follow(&mut self, follower: UserId, followee: UserId) -> Result<()> {
        self.service_mut(ServiceKind::FollowManagement, |h| h.db_mut().follow(follower, followee))
    }

    /// Restricts which of a followee's activity categories reach this
    /// follower ("the set of ... activities he would like to follow").
    pub fn set_follow_filter(
        &mut self,
        follower: UserId,
        followee: UserId,
        categories: Vec<String>,
    ) -> Result<()> {
        self.service_mut(ServiceKind::FollowManagement, |h| {
            h.db_mut().set_follow_filter(follower, followee, categories)
        })
    }

    // ---- discovery, recommendation, preview ---------------------------------

    /// Context-aware search over papers, presentations, sessions, users.
    pub fn search(&self, user: UserId, query: &str, cfg: DiscoverConfig) -> Vec<SearchHit> {
        self.service(ServiceKind::Search, |h| {
            let kn = h.knowledge();
            let ctx = build_context(&h.db, &kn, user, cfg.common.context);
            discover::search(&h.db, &kn, &h.ppr(), &ctx, query, cfg)
        })
    }

    /// Pure contextual resource recommendation (empty query).
    pub fn recommend_resources(&self, user: UserId, cfg: DiscoverConfig) -> Vec<SearchHit> {
        self.service(ServiceKind::ResourceRecommendation, |h| {
            let kn = h.knowledge();
            let ctx = build_context(&h.db, &kn, user, cfg.common.context);
            discover::recommend_resources(&h.db, &kn, &h.ppr(), &ctx, cfg)
        })
    }

    /// Collaborative-filtering recommendations from the activity matrix.
    pub fn collaborative_recommendations(&self, user: UserId, k: usize) -> Vec<(Resource, f64)> {
        self.service(ServiceKind::CollaborativeFiltering, |h| {
            let cf = CfModel::build(&h.db);
            cf.recommend_user_based(user, 10, k)
        })
    }

    /// Figure 2: relationship discovery and explanation between peers.
    /// The underlying `rel:*` store and its CSR view are cached per
    /// database generation, so repeated explanations only pay for the
    /// path search itself.
    pub fn explain_relationship(&self, a: UserId, b: UserId) -> RelationshipExplanation {
        self.service(ServiceKind::RelationshipExplanation, |h| {
            let kn = h.knowledge();
            let rel = h.relationship_graph(&kn);
            evidence::explain_relationship_with_view(&h.db, &kn, &rel.store, &rel.view, a, b, 3)
        })
    }

    /// Community discovery over the social + co-authorship layers.
    pub fn discover_communities(&self) -> Communities {
        self.service(ServiceKind::CommunityDiscovery, |h| {
            communities::discover(&h.knowledge(), Method::Louvain)
        })
    }

    /// Context-aware extractive summary of a resource's text (the §2.3
    /// "content summarization" service): the summary is biased toward the
    /// user's current activity context.
    pub fn summarize_resource(
        &self,
        user: UserId,
        resource: Resource,
        sentences: usize,
    ) -> Option<hive_text::DocumentSummary> {
        self.service(ServiceKind::Summarization, |h| {
            let ctx = build_context(&h.db, &h.knowledge(), user, ContextConfig::default());
            let text = match resource {
                Resource::Paper(p) => h.db.get_paper(p).ok()?.text(),
                Resource::Presentation(p) => h.db.get_presentation(p).ok()?.slides_text.clone(),
                Resource::Session(s) => h.db.get_session(s).ok()?.text(),
                Resource::User(u) => h.db.get_user(u).ok()?.profile_text(),
            };
            let terms: Vec<&str> = ctx.terms.iter().map(String::as_str).collect();
            hive_text::summarize_document(
                &text,
                &terms,
                hive_text::DocSumConfig { sentences, ..Default::default() },
            )
        })
    }

    /// Scheduled, size-constrained update report (AlphaSum-backed).
    pub fn update_report(
        &self,
        scope: &ReportScope,
        from: Timestamp,
        to: Timestamp,
        max_rows: usize,
    ) -> UpdateReport {
        self.service(ServiceKind::UpdateReport, |h| {
            reports::update_report(&h.db, scope, from, to, max_rows)
        })
    }

    /// Sessions ranked by live activity in a window.
    pub fn trending_sessions(
        &self,
        from: Timestamp,
        to: Timestamp,
        k: usize,
    ) -> Vec<(SessionId, f64)> {
        self.service(ServiceKind::Trends, |h| {
            crate::trends::trending_sessions(
                &h.db,
                from,
                to,
                k,
                crate::trends::HeatWeights::default(),
            )
        })
    }

    /// Topics whose discussion rose the most between two windows.
    pub fn rising_topics(
        &self,
        prev: (Timestamp, Timestamp),
        cur: (Timestamp, Timestamp),
        k: usize,
    ) -> Vec<(String, f64)> {
        self.service(ServiceKind::Trends, |h| crate::trends::rising_topics(&h.db, prev, cur, k, 2))
    }

    // ---- feeds ---------------------------------------------------------------

    /// Real-time updates for a user since a timestamp.
    pub fn updates_for(&self, user: UserId, since: Timestamp) -> Vec<Update> {
        self.service(ServiceKind::Feed, |h| feed::updates_for(&h.db, user, since))
    }

    /// Context-ranked highlights over the update stream.
    pub fn highlights(&self, user: UserId, since: Timestamp, k: usize) -> Vec<(Update, f64)> {
        self.service(ServiceKind::Feed, |h| {
            let kn = h.knowledge();
            let ctx = build_context(&h.db, &kn, user, ContextConfig::default());
            feed::highlights(&h.db, &kn, &ctx, user, since, k)
        })
    }

    /// Digest (updates + per-category counts).
    pub fn digest(&self, user: UserId, since: Timestamp) -> FeedDigest {
        self.service(ServiceKind::Feed, |h| feed::digest(&h.db, user, since))
    }

    /// The merged Hive/Twitter timeline of a session.
    pub fn session_ticker(&self, session: SessionId, since: Timestamp) -> Vec<String> {
        self.service(ServiceKind::Feed, |h| feed::session_ticker(&h.db, session, since))
    }

    // ---- activity history ------------------------------------------------------

    /// Searches the activity history, optionally context-ranked.
    pub fn search_history(&self, query: &HistoryQuery, contextual_for: Option<UserId>) -> Vec<HistoryHit> {
        self.service(ServiceKind::HistorySearch, |h| {
            let kn = h.knowledge();
            let ctx = contextual_for.map(|u| build_context(&h.db, &kn, u, ContextConfig::default()));
            history::search_history(&h.db, &kn, query, ctx.as_ref())
        })
    }

    /// Bucketed activity timeline for visualization.
    pub fn timeline(
        &self,
        actors: &[UserId],
        bucket_width: u64,
    ) -> Vec<(Timestamp, HashMap<&'static str, usize>)> {
        self.service(ServiceKind::Timeline, |h| history::timeline(&h.db, actors, bucket_width))
    }

    // ---- content & workpad conveniences ------------------------------------------

    /// Uploads/revises, asks, answers — thin delegations that keep the
    /// cache coherent.
    pub fn ask_question(
        &mut self,
        author: UserId,
        target: QaTarget,
        text: &str,
        broadcast: bool,
    ) -> Result<QuestionId> {
        self.service_mut(ServiceKind::QuestionAnswering, |h| {
            h.db_mut().ask_question(author, target, text, broadcast)
        })
    }

    /// Answers a question.
    pub fn answer_question(&mut self, author: UserId, q: QuestionId, text: &str) -> Result<AnswerId> {
        self.service_mut(ServiceKind::QuestionAnswering, |h| {
            h.db_mut().answer_question(author, q, text)
        })
    }

    /// Checks into a session.
    pub fn check_in(&mut self, user: UserId, session: SessionId) -> Result<()> {
        self.service_mut(ServiceKind::CheckIn, |h| h.db_mut().check_in(user, session))
    }

    /// Creates a workpad.
    pub fn create_workpad(&mut self, owner: UserId, name: &str) -> Result<WorkpadId> {
        self.service_mut(ServiceKind::Workpad, |h| h.db_mut().create_workpad(owner, name))
    }

    /// Drops an item onto a workpad.
    pub fn workpad_add(&mut self, user: UserId, pad: WorkpadId, item: WorkpadItem) -> Result<()> {
        self.service_mut(ServiceKind::Workpad, |h| h.db_mut().workpad_add(user, pad, item))
    }

    /// Attaches a free-text note to a workpad.
    pub fn workpad_note(
        &mut self,
        user: UserId,
        pad: WorkpadId,
        text: impl Into<String>,
    ) -> Result<WorkpadItem> {
        self.service_mut(ServiceKind::Workpad, |h| h.db_mut().workpad_note(user, pad, text))
    }

    /// Removes an item from a workpad.
    pub fn workpad_remove(
        &mut self,
        user: UserId,
        pad: WorkpadId,
        item: &WorkpadItem,
    ) -> Result<()> {
        self.service_mut(ServiceKind::Workpad, |h| h.db_mut().workpad_remove(user, pad, item))
    }

    /// Switches the active workpad (and therefore the context).
    pub fn activate_workpad(&mut self, user: UserId, pad: WorkpadId) -> Result<()> {
        self.service_mut(ServiceKind::Workpad, |h| h.db_mut().activate_workpad(user, pad))
    }

    /// Exports a workpad as a shared collection.
    pub fn export_workpad(&mut self, user: UserId, pad: WorkpadId) -> Result<CollectionId> {
        self.service_mut(ServiceKind::Workpad, |h| h.db_mut().export_workpad(user, pad))
    }

    /// Imports a shared collection as the active workpad.
    pub fn import_collection(&mut self, user: UserId, col: CollectionId) -> Result<WorkpadId> {
        self.service_mut(ServiceKind::Workpad, |h| h.db_mut().import_collection(user, col))
    }

    /// Serializes a shared collection to JSON — the paper's "export
    /// workpads as collections accessible to others" across deployments.
    pub fn export_collection_json(&self, col: CollectionId) -> Result<String> {
        self.service(ServiceKind::Workpad, |h| {
            let c = h.db.get_collection(col)?;
            Ok(hive_json::to_string(c))
        })
    }

    /// Imports a JSON collection export for `user`: validates every item
    /// against this platform, registers the collection, and activates it
    /// as a fresh workpad.
    pub fn import_collection_json(&mut self, user: UserId, json: &str) -> Result<WorkpadId> {
        self.service_mut(ServiceKind::Workpad, |h| {
            let mut col: crate::model::Collection = hive_json::from_str(json)
                .map_err(|e| crate::error::HiveError::Invalid(format!("parse: {e}")))?;
            // The importing user owns their copy.
            col.owner = user;
            let db = h.db_mut();
            let id = db.add_collection(col)?;
            db.import_collection(user, id)
        })
    }

    // ---- ingest, engagement & platform administration -------------------------

    /// Advances the logical platform clock by `dt` ticks.
    pub fn advance_clock(&mut self, dt: u64) -> Timestamp {
        self.service_mut(ServiceKind::Admin, |h| h.db_mut().advance_clock(dt))
    }

    /// Registers a researcher profile.
    pub fn add_user(&mut self, user: User) -> UserId {
        self.service_mut(ServiceKind::Ingest, |h| h.db_mut().add_user(user))
    }

    /// Uploads a paper.
    pub fn add_paper(&mut self, paper: Paper) -> Result<PaperId> {
        self.service_mut(ServiceKind::Ingest, |h| h.db_mut().add_paper(paper))
    }

    /// Uploads a presentation (slides attached to a paper + session).
    pub fn add_presentation(&mut self, pres: Presentation) -> Result<PresentationId> {
        self.service_mut(ServiceKind::Ingest, |h| h.db_mut().add_presentation(pres))
    }

    /// Revises the slides of an existing presentation.
    pub fn revise_slides(
        &mut self,
        user: UserId,
        pres: PresentationId,
        text: impl Into<String>,
    ) -> Result<()> {
        self.service_mut(ServiceKind::Ingest, |h| h.db_mut().revise_slides(user, pres, text))
    }

    /// Comments on a paper, presentation, session, or question.
    pub fn comment(
        &mut self,
        author: UserId,
        target: QaTarget,
        text: impl Into<String>,
    ) -> Result<CommentId> {
        self.service_mut(ServiceKind::Engagement, |h| h.db_mut().comment(author, target, text))
    }

    /// Posts a (possibly external) tweet into a session's stream.
    pub fn post_tweet(
        &mut self,
        author: Option<UserId>,
        handle: impl Into<String>,
        text: impl Into<String>,
        session: SessionId,
    ) -> Result<TweetId> {
        self.service_mut(ServiceKind::Engagement, |h| {
            h.db_mut().post_tweet(author, handle, text, session)
        })
    }

    /// Records that `user` viewed a paper.
    pub fn view_paper(&mut self, user: UserId, paper: PaperId) -> Result<()> {
        self.service_mut(ServiceKind::Engagement, |h| h.db_mut().view_paper(user, paper))
    }

    /// Registers conference attendance.
    pub fn attend(&mut self, user: UserId, conf: ConferenceId) -> Result<()> {
        self.service_mut(ServiceKind::Engagement, |h| h.db_mut().attend(user, conf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, WorldBuilder};

    fn hive() -> Hive {
        Hive::new(WorldBuilder::new(SimConfig::small()).build().db)
    }

    #[test]
    fn knowledge_cache_rebuilds_on_mutation() {
        let mut h = hive();
        let k1 = h.knowledge();
        let k2 = h.knowledge();
        assert!(Arc::ptr_eq(&k1, &k2), "cache hit");
        let users = h.db().user_ids();
        h.follow(users[0], users[5]).ok();
        let k3 = h.knowledge();
        assert!(!Arc::ptr_eq(&k1, &k3), "mutation invalidates");
    }

    #[test]
    fn relationship_graph_cached_per_generation() {
        hive_obs::with_level(hive_obs::Level::Counts, || {
            let mut h = hive();
            let users = h.db().user_ids();
            // Held the way a published epoch holds them, so a patch would
            // have to copy.
            let kn = h.knowledge();
            let r1 = h.relationship_graph(&kn);
            let r2 = h.relationship_graph(&kn);
            assert!(Arc::ptr_eq(&r1, &r2), "warm snapshot reused");
            let deltas = || {
                let snap = hive_obs::snapshot();
                (snap.counter("core.kn.delta"), snap.counter("core.rel.delta"))
            };
            let (kn0, rel0) = deltas();
            let session = QaTarget::Session(h.db().session_ids()[0]);
            h.comment(users[0], session, "a neutral write").unwrap();
            let kn2 = h.knowledge();
            assert!(Arc::ptr_eq(&kn, &kn2), "a neutral window re-stamps the network");
            assert!(Arc::ptr_eq(&r1, &h.relationship_graph(&kn2)), "and the rel snapshot");
            assert_eq!(deltas(), (kn0 + 1, rel0 + 1), "a re-stamp counts as a delta");
            let gen_before = h.db().generation();
            h.follow(users[1], users[2]).unwrap();
            assert!(h.db().generation() > gen_before, "mutation bumps generation");
            let kn3 = h.knowledge();
            let r3 = h.relationship_graph(&kn3);
            assert!(!Arc::ptr_eq(&kn, &kn3), "a graph-touching window patches a copy");
            assert!(Arc::ptr_eq(&kn.corpus, &kn3.corpus), "the copy shares the corpus");
            assert!(Arc::ptr_eq(&kn.user_vectors, &kn3.user_vectors), "and the vectors");
            assert!(Arc::ptr_eq(&kn.coauthor, &kn3.coauthor), "and the static graphs");
            assert!(!Arc::ptr_eq(&r1, &r3), "generation move invalidates");
            h.check_in(users[1], h.db().session_ids()[0]).unwrap();
            let kn4 = h.knowledge();
            assert!(!Arc::ptr_eq(&kn3, &kn4), "a check-in patches a copy");
            assert!(Arc::ptr_eq(&kn3.social, &kn4.social), "that shares the social layer");
        });
    }

    #[test]
    fn end_to_end_services_run() {
        let h = hive();
        let users = h.db().user_ids();
        let u = users[0];
        // Every Table 1 service group answers.
        let ctx = h.activity_context(u);
        assert!(!ctx.is_empty());
        let peers = h.recommend_peers(u, PeerRecConfig::default());
        assert!(!peers.is_empty());
        let hits = h.search(u, "tensor stream sketch", DiscoverConfig::default());
        assert!(!hits.is_empty());
        let comms = h.discover_communities();
        assert!(comms.count() >= 2);
        let report = h.update_report(
            &ReportScope::Platform,
            Timestamp(0),
            Timestamp(u64::MAX),
            5,
        );
        assert!(report.total_events > 0);
        let hist = h.search_history(&HistoryQuery { limit: 5, ..Default::default() }, None);
        assert!(!hist.is_empty());
        let tl = h.timeline(&[], 100);
        assert!(!tl.is_empty());
        // Degenerate arguments answer empty instead of panicking.
        assert!(h.timeline(&[], 0).is_empty());
        let unsummarized =
            h.update_report(&ReportScope::Platform, Timestamp(0), Timestamp(u64::MAX), 0);
        assert!(unsummarized.summary.rows.is_empty());
        assert_eq!(unsummarized.summary.retained, 0.0);
        assert_eq!(unsummarized.total_events, report.total_events, "the window is still counted");
    }

    #[test]
    fn services_record_per_kind_counters() {
        hive_obs::with_level(hive_obs::Level::Full, || {
            hive_obs::reset();
            let h = hive();
            let u = h.db().user_ids()[0];
            let _ = h.search(u, "tensor", DiscoverConfig::default());
            let _ = h.search(u, "stream", DiscoverConfig::default());
            let _ = h.activity_context(u);
            let snap = hive_obs::snapshot();
            assert_eq!(snap.service(ServiceKind::Search).map(|s| s.calls), Some(2));
            assert_eq!(
                snap.service(ServiceKind::ActivityContext).map(|s| s.calls),
                Some(1)
            );
            // First knowledge-backed call missed the cache and built the
            // network under a child span of the service span.
            assert_eq!(snap.counter("core.kn.miss"), 1);
            assert!(snap.counter("core.kn.hit") >= 2);
            assert!(snap.spans().any(|(p, _)| p == "search/kn-build"));
            hive_obs::reset();
        });
    }

    #[test]
    fn observability_has_no_observer_effect() {
        let run = |level: hive_obs::Level| {
            hive_obs::with_level(level, || {
                hive_obs::reset();
                let h = hive();
                let u = h.db().user_ids()[0];
                let hits = h.search(u, "tensor stream sketch", DiscoverConfig::default());
                let out: Vec<(String, u64)> =
                    hits.into_iter().map(|x| (x.title, x.score.to_bits())).collect();
                hive_obs::reset();
                out
            })
        };
        assert_eq!(run(hive_obs::Level::Off), run(hive_obs::Level::Full));
    }

    #[test]
    fn explanation_between_simulated_coauthors() {
        let h = hive();
        // Find a pair of co-authors.
        let paper = h
            .db()
            .paper_ids()
            .into_iter()
            .map(|p| h.db().get_paper(p).unwrap().clone())
            .find(|p| p.authors.len() >= 2)
            .expect("multi-author paper exists");
        let exp = h.explain_relationship(paper.authors[0], paper.authors[1]);
        assert!(exp.combined > 0.0);
        assert!(!exp.items.is_empty());
    }

    #[test]
    fn concept_bootstrap_service() {
        let h = hive();
        let map = h.bootstrap_concepts(
            "notes",
            &["tensor stream sketches detect changes in tensor streams"],
        );
        assert!(map.concept_count() > 0);
    }

    #[test]
    fn resource_summaries_are_contextual() {
        let h = hive();
        let u = h.db().user_ids()[0];
        let paper = h.db().paper_ids()[0];
        let s = h
            .summarize_resource(u, Resource::Paper(paper), 2)
            .expect("paper has text");
        assert!(!s.sentences.is_empty());
        assert!(s.sentences.len() <= 2);
    }

    #[test]
    fn collection_json_roundtrip() {
        let mut h = hive();
        let users = h.db().user_ids();
        let paper = h.db().paper_ids()[0];
        let pad = h.create_workpad(users[0], "shared").unwrap();
        h.workpad_add(users[0], pad, crate::model::WorkpadItem::Paper(paper)).unwrap();
        h.workpad_note(users[0], pad, "read this").unwrap();
        let col = h.export_workpad(users[0], pad).unwrap();
        let json = h.export_collection_json(col).unwrap();
        let imported = h.import_collection_json(users[1], &json).unwrap();
        let got = h.db().get_workpad(imported).unwrap();
        assert_eq!(got.owner, users[1]);
        assert_eq!(got.items.len(), 2);
        assert_eq!(got.notes, vec!["read this".to_string()]);
        // Garbage and dangling references are rejected.
        assert!(h.import_collection_json(users[1], "not json").is_err());
        let dangling = json.replace(
            &format!("\"Paper\":{}", paper.0),
            "\"Paper\":999999",
        );
        assert!(h.import_collection_json(users[1], &dangling).is_err());
    }

    #[test]
    fn collaborative_recommendations_exclude_seen() {
        let h = hive();
        let users = h.db().user_ids();
        let recs = h.collaborative_recommendations(users[0], 5);
        let cf = CfModel::build(h.db());
        for (r, _) in recs {
            assert_eq!(cf.rating(users[0], r), 0.0, "{r:?} was already consumed");
        }
    }
}
