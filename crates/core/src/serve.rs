//! Epoch-snapshot serving: single writer, lock-free concurrent readers.
//!
//! The facade ([`crate::api::Hive`]) keeps its derived tiers in
//! `Mutex`-guarded slots and answers from the live, mutating database —
//! correct for one caller, but the opposite of the paper's
//! read-dominated service mix. This module splits the platform into the
//! two roles that mix actually has:
//!
//! * **One writer** owns the [`Hive`] inside a [`HiveServer`] and
//!   applies typed mutators through [`HiveServer::writer`]. Rust's
//!   `&mut` receiver *is* the single-writer discipline — there is no
//!   writer lock because there cannot be a second writer.
//! * **Many readers** hold cloned [`ReadHandle`]s and call
//!   [`ReadHandle::epoch`] to get an immutable [`Arc<Epoch>`] — a
//!   self-consistent bundle of database snapshot, knowledge network,
//!   relationship-graph snapshot, indexes and PPR memo at one
//!   generation. Every Table-1 read service is a method on [`Epoch`],
//!   so readers never touch a lock after the sub-microsecond `Arc`
//!   clone out of the publish slot, and an epoch once handed out never
//!   changes underneath them.
//!
//! [`HiveServer::publish`] makes the next epoch visible by taking the
//! facade's four derived tiers at the current generation. A tier the
//! journaled [`crate::db::DbDelta`] window leaves unchanged hands the
//! retiring epoch's `Arc` on under the new stamp; one the window changes
//! is patched under `Arc::make_mut`, which copies because the retiring
//! epoch still pins the old value, so that epoch keeps answering out of
//! its own frozen structures.
//!
//! The pure-read service bodies shared by the facade and [`Epoch`]
//! live here as `read_*` free functions over `(&HiveDb,
//! &KnowledgeNetwork, ...)`, so both entry points are the same code by
//! construction — the sim-harness snapshot-consistency oracle then
//! checks the stronger property that any epoch read is bit-identical
//! to a serial replay at that epoch's generation.

use crate::api::Hive;
use crate::clock::Timestamp;
use crate::collab::CfModel;
use crate::communities::{self, Communities, Method};
use crate::context::{build_context, ActivityContext, ContextConfig};
use crate::db::index::DbIndexes;
use crate::db::{DbDelta, HiveDb};
use crate::discover::{self, DiscoverConfig, Resource, SearchHit};
use crate::error::Result;
use crate::evidence::{self, RelationshipExplanation};
use crate::feed::{self, FeedDigest, Update};
use crate::history::{self, HistoryHit, HistoryQuery};
use crate::ids::{SessionId, UserId};
use crate::knowledge::KnowledgeNetwork;
use crate::peers::{self, PeerRecConfig, PeerRecommendation};
use crate::ppr::PprCache;
use crate::reports::{self, ReportScope, UpdateReport};
use crate::tier::RelSnapshot;
use hive_obs::ServiceKind;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

// ---- shared pure-read service bodies --------------------------------------
//
// Each function is the entire logic of one read service, over explicit
// snapshot arguments. The facade calls them with its live db + cached
// structures; `Epoch` calls them with its frozen bundle.

/// Context-aware search (shared body of `Hive::search`).
pub(crate) fn read_search(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    idx: &DbIndexes,
    ppr: &PprCache,
    user: UserId,
    query: &str,
    cfg: DiscoverConfig,
) -> Vec<SearchHit> {
    let ctx = build_context(db, kn, user, cfg.common.context);
    discover::search(db, kn, idx, ppr, &ctx, query, cfg)
}

/// Contextual resource recommendation (shared body of
/// `Hive::recommend_resources`).
pub(crate) fn read_recommend_resources(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    idx: &DbIndexes,
    ppr: &PprCache,
    user: UserId,
    cfg: DiscoverConfig,
) -> Vec<SearchHit> {
    let ctx = build_context(db, kn, user, cfg.common.context);
    discover::recommend_resources(db, kn, idx, ppr, &ctx, cfg)
}

/// Workpad-contextualized peer recommendation (shared body of
/// `Hive::recommend_peers`).
pub(crate) fn read_recommend_peers(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    ppr: &PprCache,
    user: UserId,
    cfg: PeerRecConfig,
) -> Vec<PeerRecommendation> {
    let ctx = build_context(db, kn, user, cfg.common.context);
    peers::recommend_peers(db, kn, ppr, user, &ctx, cfg)
}

/// Content-profile nearest peers (shared body of `Hive::similar_peers`).
pub(crate) fn read_similar_peers(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    user: UserId,
    k: usize,
) -> Vec<(UserId, f64)> {
    let mut out: Vec<(UserId, f64)> = db
        .user_ids()
        .into_iter()
        .filter(|&v| v != user)
        .map(|v| (v, kn.user_similarity(user, v)))
        .filter(|(_, s)| *s > 0.0)
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out.truncate(k);
    out
}

/// Context-ranked feed highlights (shared body of `Hive::highlights`).
pub(crate) fn read_highlights(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    idx: &DbIndexes,
    user: UserId,
    since: Timestamp,
    k: usize,
) -> Vec<(Update, f64)> {
    let ctx = build_context(db, kn, user, ContextConfig::default());
    feed::highlights(db, kn, idx, &ctx, user, since, k)
}

/// Optionally context-ranked history search (shared body of
/// `Hive::search_history`).
pub(crate) fn read_search_history(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    idx: &DbIndexes,
    query: &HistoryQuery,
    contextual_for: Option<UserId>,
) -> Vec<HistoryHit> {
    let ctx = contextual_for.map(|u| build_context(db, kn, u, ContextConfig::default()));
    history::search_history(db, kn, idx, query, ctx.as_ref())
}

/// Context-biased extractive summary (shared body of
/// `Hive::summarize_resource`).
pub(crate) fn read_summarize(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    user: UserId,
    resource: Resource,
    sentences: usize,
) -> Option<hive_text::DocumentSummary> {
    let ctx = build_context(db, kn, user, ContextConfig::default());
    let text = match resource {
        Resource::Paper(p) => db.get_paper(p).ok()?.text(),
        Resource::Presentation(p) => db.get_presentation(p).ok()?.slides_text.clone(),
        Resource::Session(s) => db.get_session(s).ok()?.text(),
        Resource::User(u) => db.get_user(u).ok()?.profile_text(),
    };
    let terms: Vec<&str> = ctx.terms.iter().map(String::as_str).collect();
    hive_text::summarize_document(
        &text,
        &terms,
        hive_text::DocSumConfig { sentences, ..Default::default() },
    )
}

/// Relationship explanation over a prepared `rel:*` snapshot (shared
/// body of `Hive::explain_relationship`).
pub(crate) fn read_explain(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    rel: &RelSnapshot,
    a: UserId,
    b: UserId,
) -> RelationshipExplanation {
    evidence::explain_relationship_with_view(db, kn, &rel.store, &rel.view, a, b, 3)
}

// ---- the epoch ------------------------------------------------------------

/// An immutable, self-consistent platform snapshot at one database
/// generation: the database copy, the knowledge network, and the
/// relationship-graph snapshot all agree with each other, forever.
///
/// Every Table-1 read service is available as a method; calls are
/// lock-free (the epoch owns everything it reads) and record the same
/// per-[`ServiceKind`] observability as the facade.
pub struct Epoch {
    generation: u64,
    seq: u64,
    db: Arc<HiveDb>,
    kn: Arc<KnowledgeNetwork>,
    rel: Arc<RelSnapshot>,
    idx: Arc<DbIndexes>,
    ppr: Arc<PprCache>,
}

impl Epoch {
    /// Cold-builds an epoch from a database snapshot: knowledge network
    /// and relationship graph rebuilt from scratch, no delta patching.
    /// This is the serving-layer analogue of the oracle's "cold
    /// platform" — the reference answer a published epoch must match
    /// bit-for-bit.
    pub fn rebuild(db: Arc<HiveDb>) -> Epoch {
        let kn = Arc::new(KnowledgeNetwork::build(&db));
        let rel = Arc::new(RelSnapshot::build(&db, &kn));
        let idx = Arc::new(DbIndexes::build(&db));
        Epoch {
            generation: db.generation(),
            seq: 0,
            db,
            kn,
            rel,
            idx,
            ppr: Arc::new(PprCache::new()),
        }
    }

    /// The database generation this epoch freezes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Publish sequence number (0 for the boot epoch, +1 per publish).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Read access to the frozen database snapshot.
    pub fn db(&self) -> &HiveDb {
        &self.db
    }

    /// The frozen knowledge network.
    pub fn knowledge(&self) -> &KnowledgeNetwork {
        &self.kn
    }

    /// The frozen secondary-index set.
    pub fn indexes(&self) -> &DbIndexes {
        &self.idx
    }

    /// Same span/counter protocol as `Hive::service`, over the frozen
    /// clock — epoch reads and facade reads are indistinguishable to
    /// observability except for where their time goes.
    fn svc<T>(&self, kind: ServiceKind, f: impl FnOnce(&Self) -> T) -> T {
        let token = hive_obs::service_enter(kind, self.db.now().ticks());
        let out = f(self);
        hive_obs::service_exit(kind, token, self.db.now().ticks());
        out
    }

    /// The user's activity context at this epoch.
    pub fn activity_context(&self, user: UserId) -> ActivityContext {
        self.svc(ServiceKind::ActivityContext, |e| {
            build_context(&e.db, &e.kn, user, ContextConfig::default())
        })
    }

    /// Peer recommendation at this epoch.
    pub fn recommend_peers(&self, user: UserId, cfg: PeerRecConfig) -> Vec<PeerRecommendation> {
        self.svc(ServiceKind::PeerRecommendation, |e| {
            read_recommend_peers(&e.db, &e.kn, &e.ppr, user, cfg)
        })
    }

    /// Content-profile nearest peers at this epoch.
    pub fn similar_peers(&self, user: UserId, k: usize) -> Vec<(UserId, f64)> {
        self.svc(ServiceKind::SimilarPeers, |e| read_similar_peers(&e.db, &e.kn, user, k))
    }

    /// Session-attendance prediction at this epoch.
    pub fn predict_sessions(&self, user: UserId, k: usize) -> Vec<(SessionId, f64)> {
        self.svc(ServiceKind::SessionPrediction, |e| {
            peers::predict_sessions(&e.db, &e.kn, user, k)
        })
    }

    /// Context-aware search at this epoch.
    pub fn search(&self, user: UserId, query: &str, cfg: DiscoverConfig) -> Vec<SearchHit> {
        self.svc(ServiceKind::Search, |e| read_search(&e.db, &e.kn, &e.idx, &e.ppr, user, query, cfg))
    }

    /// Contextual resource recommendation at this epoch.
    pub fn recommend_resources(&self, user: UserId, cfg: DiscoverConfig) -> Vec<SearchHit> {
        self.svc(ServiceKind::ResourceRecommendation, |e| {
            read_recommend_resources(&e.db, &e.kn, &e.idx, &e.ppr, user, cfg)
        })
    }

    /// Collaborative-filtering recommendations at this epoch.
    pub fn collaborative_recommendations(&self, user: UserId, k: usize) -> Vec<(Resource, f64)> {
        self.svc(ServiceKind::CollaborativeFiltering, |e| {
            CfModel::build(&e.db).recommend_user_based(user, 10, k)
        })
    }

    /// Relationship explanation at this epoch (pre-built `rel:*`
    /// snapshot, so only the path search itself runs).
    pub fn explain_relationship(&self, a: UserId, b: UserId) -> RelationshipExplanation {
        self.svc(ServiceKind::RelationshipExplanation, |e| {
            read_explain(&e.db, &e.kn, &e.rel, a, b)
        })
    }

    /// Community discovery at this epoch.
    pub fn discover_communities(&self) -> Communities {
        self.svc(ServiceKind::CommunityDiscovery, |e| {
            communities::discover(&e.kn, Method::Louvain)
        })
    }

    /// Context-biased resource summary at this epoch.
    pub fn summarize_resource(
        &self,
        user: UserId,
        resource: Resource,
        sentences: usize,
    ) -> Option<hive_text::DocumentSummary> {
        self.svc(ServiceKind::Summarization, |e| {
            read_summarize(&e.db, &e.kn, user, resource, sentences)
        })
    }

    /// Update report at this epoch.
    pub fn update_report(
        &self,
        scope: &ReportScope,
        from: Timestamp,
        to: Timestamp,
        max_rows: usize,
    ) -> UpdateReport {
        self.svc(ServiceKind::UpdateReport, |e| {
            reports::update_report(&e.db, &e.idx, scope, from, to, max_rows)
        })
    }

    /// Trending sessions at this epoch.
    pub fn trending_sessions(
        &self,
        from: Timestamp,
        to: Timestamp,
        k: usize,
    ) -> Vec<(SessionId, f64)> {
        self.svc(ServiceKind::Trends, |e| {
            crate::trends::trending_sessions(&e.db, from, to, k, crate::trends::HeatWeights::default())
        })
    }

    /// Rising topics at this epoch.
    pub fn rising_topics(
        &self,
        prev: (Timestamp, Timestamp),
        cur: (Timestamp, Timestamp),
        k: usize,
    ) -> Vec<(String, f64)> {
        self.svc(ServiceKind::Trends, |e| crate::trends::rising_topics(&e.db, prev, cur, k, 2))
    }

    /// Feed updates at this epoch.
    pub fn updates_for(&self, user: UserId, since: Timestamp) -> Vec<Update> {
        self.svc(ServiceKind::Feed, |e| feed::updates_for(&e.db, &e.idx, user, since))
    }

    /// Context-ranked highlights at this epoch.
    pub fn highlights(&self, user: UserId, since: Timestamp, k: usize) -> Vec<(Update, f64)> {
        self.svc(ServiceKind::Feed, |e| read_highlights(&e.db, &e.kn, &e.idx, user, since, k))
    }

    /// Feed digest at this epoch.
    pub fn digest(&self, user: UserId, since: Timestamp) -> FeedDigest {
        self.svc(ServiceKind::Feed, |e| feed::digest(&e.db, &e.idx, user, since))
    }

    /// Session ticker at this epoch.
    pub fn session_ticker(&self, session: SessionId, since: Timestamp) -> Vec<String> {
        self.svc(ServiceKind::Feed, |e| feed::session_ticker(&e.db, session, since))
    }

    /// History search at this epoch.
    pub fn search_history(
        &self,
        query: &HistoryQuery,
        contextual_for: Option<UserId>,
    ) -> Vec<HistoryHit> {
        self.svc(ServiceKind::HistorySearch, |e| {
            read_search_history(&e.db, &e.kn, &e.idx, query, contextual_for)
        })
    }

    /// Bucketed activity timeline at this epoch.
    pub fn timeline(
        &self,
        actors: &[UserId],
        bucket_width: u64,
    ) -> Vec<(Timestamp, HashMap<&'static str, usize>)> {
        self.svc(ServiceKind::Timeline, |e| history::timeline(&e.db, &e.idx, actors, bucket_width))
    }
}

// ---- the server -----------------------------------------------------------

/// The publish slot readers clone epochs out of. An `RwLock` rather
/// than a `Mutex` because the hold times are asymmetric and tiny: a
/// read holds it for one `Arc` clone, a publish for one pointer swap —
/// neither ever covers a build (the serving-layer analogue of the
/// facade's lock-scope discipline, lint R11).
struct Slot {
    current: RwLock<Arc<Epoch>>,
}

impl Slot {
    fn get(&self) -> Arc<Epoch> {
        match self.current.read() {
            Ok(g) => Arc::clone(&g),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    fn set(&self, next: Arc<Epoch>) {
        match self.current.write() {
            Ok(mut g) => *g = next,
            Err(poisoned) => *poisoned.into_inner() = next,
        }
    }
}

/// A cloneable, lock-free read path into the serving layer. Handing a
/// `ReadHandle` to a reader task gives it [`ReadHandle::epoch`] and
/// nothing else — readers structurally cannot mutate or block the
/// writer.
#[derive(Clone)]
pub struct ReadHandle {
    slot: Arc<Slot>,
}

impl ReadHandle {
    /// The most recently published epoch. One `Arc` clone under a read
    /// guard; all subsequent service calls on the returned epoch touch
    /// no shared state at all.
    pub fn epoch(&self) -> Arc<Epoch> {
        hive_obs::count("serve.read.calls", 1);
        self.slot.get()
    }

    /// The generation of the most recently published epoch — lets a
    /// long-lived reader measure how far behind its pinned epoch is.
    pub fn current_generation(&self) -> u64 {
        self.slot.get().generation
    }
}

/// Single-writer serving wrapper around a [`Hive`].
///
/// The server owns the facade; mutators go through
/// [`HiveServer::writer`] (the full typed mutation surface of
/// [`Hive`]) and become visible to readers only at the next
/// [`HiveServer::publish`]. Readers come from [`HiveServer::reader`]
/// and scale without locks — see the module docs for the full
/// contract.
pub struct HiveServer {
    hive: Hive,
    slot: Arc<Slot>,
}

impl HiveServer {
    /// Boots a server over a (possibly pre-populated) database and
    /// publishes the boot epoch (seq 0) so readers never observe an
    /// empty slot.
    pub fn new(db: HiveDb) -> HiveServer {
        let hive = Hive::new(db);
        let boot = Arc::new(Self::snapshot_epoch(&hive, 0));
        HiveServer { hive, slot: Arc::new(Slot { current: RwLock::new(boot) }) }
    }

    /// Bundles the facade's current generation into an epoch: the four
    /// derived structures come from the facade's tiers (re-stamped,
    /// patched or rebuilt there) and the database is copied.
    fn snapshot_epoch(hive: &Hive, seq: u64) -> Epoch {
        let generation = hive.db().generation();
        let kn = hive.knowledge();
        let rel = hive.relationship_graph(&kn);
        let idx = hive.indexes();
        let ppr = hive.ppr();
        Epoch { generation, seq, db: Arc::new(hive.db().clone()), kn, rel, idx, ppr }
    }

    /// The typed mutation surface. `&mut self` is the single-writer
    /// guarantee: only one caller can ever be applying mutations, and
    /// readers never see them until [`HiveServer::publish`].
    pub fn writer(&mut self) -> &mut Hive {
        &mut self.hive
    }

    /// Read access to the owned facade (the writer's own live view —
    /// *not* snapshot-isolated; readers want [`HiveServer::reader`]).
    pub fn hive(&self) -> &Hive {
        &self.hive
    }

    /// A new lock-free read handle (cheap; clone freely per reader).
    pub fn reader(&self) -> ReadHandle {
        ReadHandle { slot: Arc::clone(&self.slot) }
    }

    /// The most recently published epoch.
    pub fn current(&self) -> Arc<Epoch> {
        self.slot.get()
    }

    /// Makes everything the writer has applied since the last publish
    /// visible to readers as one new immutable epoch. A no-op (and
    /// `serve.epoch.noop`) when the generation has not moved; otherwise
    /// counts whether the derived structures could patch forward
    /// through the delta log (`serve.epoch.patch`) or had to rebuild
    /// (`serve.epoch.rebuild`), under an `epoch-publish` span.
    pub fn publish(&mut self) -> Arc<Epoch> {
        let generation = self.hive.db().generation();
        let prev = self.current();
        if prev.generation == generation {
            hive_obs::count("serve.epoch.noop", 1);
            return prev;
        }
        let span = hive_obs::span_enter("epoch-publish", self.hive.db().now().ticks());
        let window = self.hive.db().deltas_since(prev.generation);
        if window.is_some_and(|w| !w.iter().any(DbDelta::is_structural)) {
            hive_obs::count("serve.epoch.patch", 1);
        } else {
            hive_obs::count("serve.epoch.rebuild", 1);
        }
        let next = Arc::new(Self::snapshot_epoch(&self.hive, prev.seq + 1));
        self.slot.set(Arc::clone(&next));
        hive_obs::span_exit(span, self.hive.db().now().ticks());
        hive_obs::count("serve.epoch.publish", 1);
        hive_obs::gauge_max("serve.epoch.generation", generation);
        hive_obs::gauge_max("serve.epoch.gen_stride", generation - prev.generation);
        next
    }

    // ---- replication hooks --------------------------------------------------

    /// The writer's current mutation generation (what the next publish
    /// would stamp). Replication leaders frame log entries between
    /// consecutive values of this counter.
    pub fn generation(&self) -> u64 {
        self.hive.db().generation()
    }

    /// The classified delta stream journaled after `generation`, oldest
    /// first, or `None` when the ring journal no longer covers that
    /// window (the replication layer must fall back to a checkpoint).
    pub fn deltas_since(&self, generation: u64) -> Option<Vec<DbDelta>> {
        self.hive.db().deltas_since(generation).map(<[DbDelta]>::to_vec)
    }

    /// Exports a replication checkpoint of the writer's current state:
    /// the full snapshot stamped with its generation, for follower
    /// bootstrap and gap/truncation recovery.
    pub fn checkpoint(&self) -> crate::persist::ReplicaCheckpoint {
        self.hive.db().checkpoint()
    }

    /// Boots a server from a replication checkpoint: the restored
    /// database adopts the checkpoint's generation and the boot epoch
    /// is published from it, so a follower's first served epoch is the
    /// leader state the checkpoint captured.
    pub fn from_checkpoint(cp: &crate::persist::ReplicaCheckpoint) -> Result<HiveServer> {
        Ok(HiveServer::new(HiveDb::from_checkpoint(cp)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QaTarget;
    use crate::sim::{SimConfig, WorldBuilder};

    fn server() -> HiveServer {
        HiveServer::new(WorldBuilder::new(SimConfig::small()).build().db)
    }

    #[test]
    fn boot_epoch_matches_facade_bit_for_bit() {
        let s = server();
        let epoch = s.current();
        let h = s.hive();
        let u = h.db().user_ids()[0];
        let q = "tensor stream sketch";
        let facade: Vec<(String, u64)> = h
            .search(u, q, DiscoverConfig::default())
            .into_iter()
            .map(|x| (x.title, x.score.to_bits()))
            .collect();
        let served: Vec<(String, u64)> = epoch
            .search(u, q, DiscoverConfig::default())
            .into_iter()
            .map(|x| (x.title, x.score.to_bits()))
            .collect();
        assert_eq!(facade, served);
        let fp: Vec<(UserId, u64)> =
            h.similar_peers(u, 5).into_iter().map(|(v, s)| (v, s.to_bits())).collect();
        let ep: Vec<(UserId, u64)> =
            epoch.similar_peers(u, 5).into_iter().map(|(v, s)| (v, s.to_bits())).collect();
        assert_eq!(fp, ep);
    }

    #[test]
    fn old_epoch_is_frozen_while_the_writer_moves_on() {
        let mut s = server();
        let users = s.hive().db().user_ids();
        let old = s.current();
        let old_follows = old.db().activity_log().len();
        s.writer().follow(users[0], users[7]).ok();
        s.writer().follow(users[1], users[8]).ok();
        let fresh = s.publish();
        assert!(fresh.generation() > old.generation(), "publish advances the generation");
        assert_eq!(fresh.seq(), old.seq() + 1);
        assert_eq!(
            old.db().activity_log().len(),
            old_follows,
            "retired epoch must not observe later writes"
        );
        // The retired epoch still answers (out of its own frozen kn).
        let _ = old.similar_peers(users[0], 3);
    }

    #[test]
    fn publish_without_mutation_is_a_noop() {
        let mut s = server();
        let e1 = s.publish();
        let e2 = s.publish();
        assert!(Arc::ptr_eq(&e1, &e2), "same generation republishes the same epoch");
    }

    #[test]
    fn published_epoch_matches_cold_rebuild() {
        let mut s = server();
        let users = s.hive().db().user_ids();
        let session = s.hive().db().session_ids()[0];
        let u = users[2];
        // Answers that read every tier: kn (similar peers), rel
        // (explanation), and idx + ppr (search, peer recommendation).
        let answers = |e: &Epoch| -> Vec<(String, u64)> {
            let peers = e.similar_peers(u, 5).into_iter().map(|(v, x)| (format!("{v:?}"), x));
            let explained = ("explain".to_string(), e.explain_relationship(u, users[3]).combined);
            let hits = e.search(u, "tensor stream", DiscoverConfig::default());
            let recs = e.recommend_peers(u, PeerRecConfig::default());
            peers
                .chain([explained])
                .chain(hits.iter().map(|h| (format!("{:?}", h.resource), h.score)))
                .chain(recs.iter().map(|p| (format!("{:?}", p.user), p.score)))
                .map(|(key, x)| (key, x.to_bits()))
                .collect()
        };
        let cold = |e: &Epoch| Epoch::rebuild(Arc::new(e.db().clone()));
        s.writer().follow(users[2], users[3]).ok();
        s.writer().check_in(users[2], session).ok();
        let epoch = s.publish();
        assert_eq!(
            answers(&epoch),
            answers(&cold(&epoch)),
            "patched-forward epoch must equal cold rebuild"
        );
        // A neutral-only window: the tiers move on by re-stamping.
        s.writer().comment(u, QaTarget::Session(session), "a neutral write").unwrap();
        s.writer().post_tweet(Some(u), "@neutral", "a neutral tweet", session).unwrap();
        let restamped = s.publish();
        assert!(restamped.generation() > epoch.generation());
        assert!(
            std::ptr::eq(restamped.knowledge(), epoch.knowledge()),
            "kn is re-stamped, not copied"
        );
        assert_eq!(
            answers(&restamped),
            answers(&cold(&restamped)),
            "re-stamped epoch must equal cold rebuild"
        );
    }

    #[test]
    fn read_handles_survive_the_server_and_count_reads() {
        hive_obs::with_level(hive_obs::Level::Counts, || {
            hive_obs::reset();
            let s = server();
            let r1 = s.reader();
            let r2 = r1.clone();
            assert_eq!(r1.epoch().generation(), r2.epoch().generation());
            assert_eq!(r1.current_generation(), s.current().generation());
            let snap = hive_obs::snapshot();
            assert_eq!(snap.counter("serve.read.calls"), 2);
            hive_obs::reset();
        });
    }
}
