//! Typed secondary indexes and the declarative query planner.
//!
//! Services used to answer "papers about X in venue Y since tick T" by
//! iterating a full arena or the whole activity log and filtering
//! inline. [`DbIndexes`] replaces that with declarative typed indexes —
//! by **activity category**, **actor**, **time range**, **topic**,
//! **venue**, and **author** — and [`ActivityQuery`] / [`ResourceQuery`]
//! plan against them, falling back to a scan only when no index
//! applies.
//!
//! # Maintenance is O(delta)
//!
//! Every arena in [`HiveDb`] is append-only and the activity log is
//! clock-ordered, so forward maintenance is a *suffix scan from
//! recorded watermarks*: [`DbIndexes::patch`] ingests exactly the rows
//! appended since the index's stamped generation. The patch is gated on
//! the same [`HiveDb::deltas_since`] journal window the PR-5 cache
//! tiers use — a restored or checkpoint-adopted database resets its
//! journal, the window check fails, and the caller falls back to
//! [`DbIndexes::build`]. The `idx.patch` / `idx.rebuild` counters prove
//! which maintenance path ran; `idx.hit` / `idx.scan_fallback` prove
//! which query path did.
//!
//! # Equivalence by construction
//!
//! Index postings only ever *prune candidates*; the final say on every
//! candidate is the same `matches` predicate the scan fallback uses,
//! and candidates are emitted in the scan's order (log order for
//! activities; papers → presentations → sessions → users, each
//! ascending, for resources). A query therefore returns bit-identical
//! results through either path — `tests/index_equivalence.rs` pins
//! this across randomized query mixes and delta interleavings. Postings
//! live in `BTreeMap`s so digesting the index for the fingerprint
//! oracle needs no sorting pass.

use super::HiveDb;
use crate::clock::Timestamp;
use crate::discover::Resource;
use crate::ids::{ConferenceId, PaperId, SessionId, UserId};
use crate::model::{ActivityCategory, ActivityRecord};
use hive_text::tokenize;
use std::collections::BTreeMap;

/// Half-open logical-time window `[start, end)` in clock ticks.
///
/// Replaces the bare `Option<Timestamp>` from/to pair of the legacy
/// query shape: the bounds travel together and the half-open convention
/// is stated once, here, instead of at every filter site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TickRange {
    start: u64,
    end: u64,
}

impl TickRange {
    /// The unbounded window (every record matches).
    pub fn all() -> Self {
        TickRange { start: 0, end: u64::MAX }
    }

    /// Everything at or after `from`.
    pub fn since(from: Timestamp) -> Self {
        TickRange { start: from.ticks(), end: u64::MAX }
    }

    /// Everything strictly before `to`.
    pub fn until(to: Timestamp) -> Self {
        TickRange { start: 0, end: to.ticks() }
    }

    /// The half-open window `[from, to)`.
    pub fn between(from: Timestamp, to: Timestamp) -> Self {
        TickRange { start: from.ticks(), end: to.ticks() }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: Timestamp) -> bool {
        let k = t.ticks();
        self.start <= k && k < self.end
    }

    /// Whether this is the unbounded window.
    pub fn is_all(&self) -> bool {
        self.start == 0 && self.end == u64::MAX
    }

    /// Inclusive lower bound.
    pub fn start(&self) -> Timestamp {
        Timestamp(self.start)
    }

    /// Exclusive upper bound.
    pub fn end(&self) -> Timestamp {
        Timestamp(self.end)
    }
}

impl Default for TickRange {
    fn default() -> Self {
        Self::all()
    }
}

/// Tokens of a content text, deduplicated — the normal form both the
/// index build and the topic predicate use, so they cannot disagree.
/// Public so callers can turn free text into index-shaped topic keys.
pub fn topic_tokens(text: &str) -> Vec<String> {
    let mut toks = tokenize(text);
    toks.sort_unstable();
    toks.dedup();
    toks
}

/// Incremental FNV-1a over the canonical rendering of index contents.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn eat_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn eat_u64(&mut self, v: u64) {
        self.eat_bytes(&v.to_le_bytes());
    }
}

/// The typed secondary-index set over one [`HiveDb`], stamped with the
/// generation it reflects.
///
/// Cloning is what the facade's `Arc::make_mut` tier relies on; equality
/// is structural (the property tests compare a delta-patched index to a
/// cold [`DbIndexes::build`] with `==`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DbIndexes {
    /// Database generation these contents reflect.
    generation: u64,
    /// Activity-log watermark: positions `< log_len` are indexed.
    log_len: usize,
    /// Arena watermarks: rows `< *_len` have topic postings.
    users_len: usize,
    sessions_len: usize,
    papers_len: usize,
    /// Log positions per actor, ascending.
    by_actor: BTreeMap<UserId, Vec<u32>>,
    /// Log positions per activity category, ascending (slot order of
    /// [`ActivityCategory::ALL`]).
    by_category: [Vec<u32>; 7],
    /// Token → papers whose text contains it, ascending.
    topic_papers: BTreeMap<String, Vec<PaperId>>,
    /// Token → sessions whose text contains it, ascending.
    topic_sessions: BTreeMap<String, Vec<SessionId>>,
    /// Token → users whose profile contains it, ascending.
    topic_users: BTreeMap<String, Vec<UserId>>,
}

impl DbIndexes {
    /// Builds the full index set from scratch (the cold path, counted
    /// as `idx.rebuild`).
    pub fn build(db: &HiveDb) -> Self {
        hive_obs::count("idx.rebuild", 1);
        let mut idx = DbIndexes {
            generation: db.generation(),
            log_len: 0,
            users_len: 0,
            sessions_len: 0,
            papers_len: 0,
            by_actor: BTreeMap::new(),
            by_category: Default::default(),
            topic_papers: BTreeMap::new(),
            topic_sessions: BTreeMap::new(),
            topic_users: BTreeMap::new(),
        };
        idx.ingest_suffixes(db);
        idx
    }

    /// The generation this index reflects.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Ingests everything appended past the watermarks. Arenas are
    /// append-only and rows are immutable once created (slide revisions
    /// touch only the un-indexed `slides_text`), so a suffix scan
    /// brings every posting exactly up to date.
    fn ingest_suffixes(&mut self, db: &HiveDb) {
        let log = db.activity_log();
        for pos in self.log_len..log.len() {
            let rec = &log[pos];
            self.by_actor.entry(rec.user).or_default().push(pos as u32);
            self.by_category[ActivityCategory::of(&rec.event).slot()].push(pos as u32);
        }
        self.log_len = log.len();

        let users = db.user_ids();
        for &u in &users[self.users_len..] {
            if let Ok(user) = db.get_user(u) {
                for tok in topic_tokens(&user.profile_text()) {
                    self.topic_users.entry(tok).or_default().push(u);
                }
            }
        }
        self.users_len = users.len();

        let sessions = db.session_ids();
        for &s in &sessions[self.sessions_len..] {
            if let Ok(session) = db.get_session(s) {
                for tok in topic_tokens(&session.text()) {
                    self.topic_sessions.entry(tok).or_default().push(s);
                }
            }
        }
        self.sessions_len = sessions.len();

        let papers = db.paper_ids();
        for &p in &papers[self.papers_len..] {
            if let Ok(paper) = db.get_paper(p) {
                for tok in topic_tokens(&paper.text()) {
                    self.topic_papers.entry(tok).or_default().push(p);
                }
            }
        }
        self.papers_len = papers.len();
    }

    /// O(delta) forward maintenance: ingests the suffix appended since
    /// this index's stamped generation (counted as `idx.patch`).
    ///
    /// Returns `false` — without touching `self` — when `db`'s delta
    /// journal no longer covers the stamp (the ring compacted past it,
    /// or `db` is a restored/checkpoint-adopted instance whose journal
    /// restarted); the caller must fall back to [`DbIndexes::build`].
    /// The journal window is the proof the watermarks still describe a
    /// prefix of *this* database.
    pub fn patch(&mut self, db: &HiveDb) -> bool {
        if db.deltas_since(self.generation).is_none() {
            return false;
        }
        // Watermarks must describe a prefix; a shrunken arena means the
        // generations matched across different database lineages.
        if self.log_len > db.activity_log().len()
            || self.users_len > db.user_ids().len()
            || self.sessions_len > db.session_ids().len()
            || self.papers_len > db.paper_ids().len()
        {
            return false;
        }
        if self.generation != db.generation() {
            self.ingest_suffixes(db);
            self.generation = db.generation();
            hive_obs::count("idx.patch", 1);
        }
        true
    }

    /// Ascending log positions of `actor`'s records.
    pub fn actor_postings(&self, actor: UserId) -> &[u32] {
        self.by_actor.get(&actor).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Ascending log positions of records in `category`.
    pub fn category_postings(&self, category: ActivityCategory) -> &[u32] {
        &self.by_category[category.slot()]
    }

    /// Ascending papers whose text contains `token` (normalized form).
    pub fn papers_on_topic(&self, token: &str) -> &[PaperId] {
        self.topic_papers.get(token).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Ascending sessions whose text contains `token`.
    pub fn sessions_on_topic(&self, token: &str) -> &[SessionId] {
        self.topic_sessions.get(token).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Ascending users whose profile contains `token`.
    pub fn users_on_topic(&self, token: &str) -> &[UserId] {
        self.topic_users.get(token).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Deterministic digest of the full index contents (FNV-1a over a
    /// canonical rendering; postings iterate in `BTreeMap` key order,
    /// so no sort pass is needed). The sim-harness fingerprint oracle
    /// uses this to prove a delta-patched index, a cold rebuild, and a
    /// replication follower's replayed index are bit-identical. The
    /// generation stamp is deliberately excluded: a checkpoint-restored
    /// follower renumbers generations but must index the same contents.
    pub fn digest(&self) -> String {
        let mut h = Fnv::new();
        h.eat_u64(self.log_len as u64);
        for (u, posting) in &self.by_actor {
            h.eat_u64(u.0 as u64);
            for &p in posting {
                h.eat_u64(p as u64);
            }
        }
        for posting in &self.by_category {
            h.eat_u64(posting.len() as u64);
            for &p in posting {
                h.eat_u64(p as u64);
            }
        }
        let mut entries = 0usize;
        for (tok, posting) in &self.topic_papers {
            h.eat_bytes(tok.as_bytes());
            for &p in posting {
                h.eat_u64(p.0 as u64);
            }
            entries += posting.len();
        }
        for (tok, posting) in &self.topic_sessions {
            h.eat_bytes(tok.as_bytes());
            for &s in posting {
                h.eat_u64(s.0 as u64);
            }
            entries += posting.len();
        }
        for (tok, posting) in &self.topic_users {
            h.eat_bytes(tok.as_bytes());
            for &u in posting {
                h.eat_u64(u.0 as u64);
            }
            entries += posting.len();
        }
        format!(
            "fnv={:016x} log={} actors={} topic_entries={}",
            h.0,
            self.log_len,
            self.by_actor.len(),
            entries
        )
    }
}

/// Clips an ascending posting list to positions `< prefix` whose record
/// falls inside `range`. Positions ascend and the log is clock-ordered,
/// so both clips are binary searches over the posting itself. An
/// inverted window (start after end) clips to nothing, as the scan's
/// `contains` test does.
fn clip_posting<'a>(
    posting: &'a [u32],
    log: &[ActivityRecord],
    range: &TickRange,
    prefix: usize,
) -> &'a [u32] {
    let end = posting.partition_point(|&p| (p as usize) < prefix);
    let posting = &posting[..end];
    if range.is_all() {
        return posting;
    }
    let lo = posting.partition_point(|&p| log[p as usize].at < range.start());
    let hi = posting.partition_point(|&p| log[p as usize].at < range.end());
    &posting[lo..hi.max(lo)]
}

/// A declarative activity-log query: actor set, category set, and a
/// time window, all optional. Build with [`ActivityQuery::new`] and the
/// chainable setters, then [`ActivityQuery::run`] plans it against the
/// indexes (or [`ActivityQuery::scan`] forces the reference scan).
///
/// ```
/// use hive_core::db::index::{ActivityQuery, TickRange};
/// use hive_core::model::ActivityCategory;
/// let q = ActivityQuery::new()
///     .with_categories(vec![ActivityCategory::CheckIn])
///     .within(TickRange::all());
/// assert!(q.actors().is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct ActivityQuery {
    actors: Vec<UserId>,
    categories: Vec<ActivityCategory>,
    range: TickRange,
}

impl ActivityQuery {
    /// An unconstrained query (matches every record).
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts to records by these actors (empty = everyone).
    pub fn with_actors(mut self, actors: Vec<UserId>) -> Self {
        self.actors = actors;
        self
    }

    /// Restricts to these categories (empty = all).
    pub fn with_categories(mut self, categories: Vec<ActivityCategory>) -> Self {
        self.categories = categories;
        self
    }

    /// Restricts to the half-open time window.
    pub fn within(mut self, range: TickRange) -> Self {
        self.range = range;
        self
    }

    /// The actor restriction.
    pub fn actors(&self) -> &[UserId] {
        &self.actors
    }

    /// The category restriction.
    pub fn categories(&self) -> &[ActivityCategory] {
        &self.categories
    }

    /// The time window.
    pub fn range(&self) -> TickRange {
        self.range
    }

    /// The predicate both paths share: the scan applies it to every
    /// record, the planner applies it to every index candidate, so the
    /// two paths agree by construction.
    pub fn matches(&self, rec: &ActivityRecord) -> bool {
        (self.actors.is_empty() || self.actors.contains(&rec.user))
            && (self.categories.is_empty()
                || self.categories.contains(&ActivityCategory::of(&rec.event)))
            && self.range.contains(rec.at)
    }

    /// Reference full-log scan — the planner's fallback, and the oracle
    /// the equivalence property tests compare the indexed path against.
    pub fn scan<'a>(&self, db: &'a HiveDb) -> Vec<&'a ActivityRecord> {
        db.activity_log().iter().filter(|r| self.matches(r)).collect()
    }

    /// Plans the query against the indexes and runs it. Candidate
    /// sources, in priority order: actor postings, category postings, a
    /// binary search on the clock-ordered log for a bounded window
    /// (each counted as `idx.hit`), else the full scan (counted as
    /// `idx.scan_fallback`). Records come back in log order either way,
    /// so downstream stable sorts are bit-identical across paths.
    ///
    /// `idx` may trail `db` (an epoch-pinned snapshot while the writer
    /// moves on): positions past the index watermark are covered by a
    /// scan of just that suffix, keeping the result exact.
    pub fn run<'a>(&self, db: &'a HiveDb, idx: &DbIndexes) -> Vec<&'a ActivityRecord> {
        let log = db.activity_log();
        let prefix = idx.log_len.min(log.len());
        let mut positions: Vec<u32>;
        if !self.actors.is_empty() {
            hive_obs::count("idx.hit", 1);
            positions = Vec::new();
            let mut actors = self.actors.clone();
            actors.sort_unstable();
            actors.dedup();
            for a in actors {
                positions.extend_from_slice(clip_posting(
                    idx.actor_postings(a),
                    log,
                    &self.range,
                    prefix,
                ));
            }
            // Distinct actors own distinct records: merge is a sort.
            positions.sort_unstable();
        } else if !self.categories.is_empty() {
            hive_obs::count("idx.hit", 1);
            positions = Vec::new();
            let mut cats = self.categories.clone();
            cats.sort_unstable();
            cats.dedup();
            for c in cats {
                positions.extend_from_slice(clip_posting(
                    idx.category_postings(c),
                    log,
                    &self.range,
                    prefix,
                ));
            }
            positions.sort_unstable();
        } else if !self.range.is_all() {
            hive_obs::count("idx.hit", 1);
            let indexed = &log[..prefix];
            let lo = indexed.partition_point(|r| r.at < self.range.start());
            let hi = indexed.partition_point(|r| r.at < self.range.end());
            positions = (lo..hi).map(|p| p as u32).collect();
        } else {
            hive_obs::count("idx.scan_fallback", 1);
            return self.scan(db);
        }
        let mut out: Vec<&ActivityRecord> = positions
            .into_iter()
            .map(|p| &log[p as usize])
            .filter(|r| self.matches(r))
            .collect();
        // Un-indexed tail, if the index snapshot trails the database.
        out.extend(log[prefix..].iter().filter(|r| self.matches(r)));
        out
    }
}

/// A declarative resource query over the content arenas: which resource
/// kinds to return, optionally scoped by venue, author, and topic.
/// Build with [`ResourceQuery::new`] and the chainable setters.
///
/// Scoping semantics (shared verbatim by the scan predicate and the
/// planner's residual filter):
///
/// * **venue** — papers published at the edition, presentations in its
///   sessions, its sessions, and its attendees;
/// * **author** — papers the user authored and their presentations;
///   sessions match only when the user chairs them; user profiles never
///   match an author scope (it selects *content*);
/// * **topic** — every token of the phrase appears in the resource's
///   indexed text (paper text, for a presentation: its paper's text —
///   slide text is mutable and deliberately un-indexed; session text;
///   user profile).
#[derive(Clone, Debug)]
pub struct ResourceQuery {
    papers: bool,
    presentations: bool,
    sessions: bool,
    users: bool,
    venue: Option<ConferenceId>,
    author: Option<UserId>,
    topic: Option<String>,
}

impl Default for ResourceQuery {
    fn default() -> Self {
        ResourceQuery {
            papers: true,
            presentations: true,
            sessions: true,
            users: true,
            venue: None,
            author: None,
            topic: None,
        }
    }
}

impl ResourceQuery {
    /// All resource kinds, unscoped.
    pub fn new() -> Self {
        Self::default()
    }

    /// Includes or excludes papers.
    pub fn with_papers(mut self, yes: bool) -> Self {
        self.papers = yes;
        self
    }

    /// Includes or excludes presentations.
    pub fn with_presentations(mut self, yes: bool) -> Self {
        self.presentations = yes;
        self
    }

    /// Includes or excludes sessions.
    pub fn with_sessions(mut self, yes: bool) -> Self {
        self.sessions = yes;
        self
    }

    /// Includes or excludes user profiles.
    pub fn with_users(mut self, yes: bool) -> Self {
        self.users = yes;
        self
    }

    /// Scopes to one conference edition.
    pub fn at_venue(mut self, venue: ConferenceId) -> Self {
        self.venue = Some(venue);
        self
    }

    /// Scopes to content authored (or chaired) by one user.
    pub fn by_author(mut self, author: UserId) -> Self {
        self.author = Some(author);
        self
    }

    /// Scopes to resources whose text contains every token of `topic`.
    pub fn on_topic(mut self, topic: impl Into<String>) -> Self {
        self.topic = Some(topic.into());
        self
    }

    /// The topic phrase in token normal form (empty = no topic scope).
    fn topic_needles(&self) -> Vec<String> {
        self.topic.as_deref().map(topic_tokens).unwrap_or_default()
    }

    fn text_on_topic(text: &str, needles: &[String]) -> bool {
        let toks = topic_tokens(text);
        needles.iter().all(|n| toks.binary_search(n).is_ok())
    }

    /// The shared predicate (see the type docs for scoping semantics).
    pub fn matches(&self, db: &HiveDb, r: Resource) -> bool {
        let needles = self.topic_needles();
        self.matches_with(db, r, &needles)
    }

    fn matches_with(&self, db: &HiveDb, r: Resource, needles: &[String]) -> bool {
        match r {
            Resource::Paper(p) => {
                self.papers
                    && db
                        .get_paper(p)
                        .map(|x| {
                            self.venue.is_none_or(|v| x.venue == Some(v))
                                && self.author.is_none_or(|a| x.authors.contains(&a))
                                && (needles.is_empty()
                                    || Self::text_on_topic(&x.text(), needles))
                        })
                        .unwrap_or(false)
            }
            Resource::Presentation(p) => {
                self.presentations
                    && db
                        .get_presentation(p)
                        .map(|x| {
                            let venue_ok = self.venue.is_none_or(|v| {
                                db.get_session(x.session)
                                    .map(|s| s.conference == v)
                                    .unwrap_or(false)
                            });
                            let paper = db.get_paper(x.paper).ok();
                            let author_ok = self.author.is_none_or(|a| {
                                paper.map(|pp| pp.authors.contains(&a)).unwrap_or(false)
                            });
                            let topic_ok = needles.is_empty()
                                || paper
                                    .map(|pp| Self::text_on_topic(&pp.text(), needles))
                                    .unwrap_or(false);
                            venue_ok && author_ok && topic_ok
                        })
                        .unwrap_or(false)
            }
            Resource::Session(s) => {
                self.sessions
                    && db
                        .get_session(s)
                        .map(|x| {
                            self.venue.is_none_or(|v| x.conference == v)
                                && self.author.is_none_or(|a| x.chair == Some(a))
                                && (needles.is_empty()
                                    || Self::text_on_topic(&x.text(), needles))
                        })
                        .unwrap_or(false)
            }
            Resource::User(u) => {
                self.users
                    && self.author.is_none()
                    && db
                        .get_user(u)
                        .map(|x| {
                            self.venue.is_none_or(|v| db.attends(u, v))
                                && (needles.is_empty()
                                    || Self::text_on_topic(&x.profile_text(), needles))
                        })
                        .unwrap_or(false)
            }
        }
    }

    /// Reference full-arena scan (the planner's fallback and the
    /// equivalence oracle): papers, presentations, sessions, users,
    /// each ascending — the kind order the legacy discover sweep used.
    pub fn scan(&self, db: &HiveDb) -> Vec<Resource> {
        let needles = self.topic_needles();
        let mut out = Vec::new();
        if self.papers {
            out.extend(
                db.paper_ids()
                    .into_iter()
                    .map(Resource::Paper)
                    .filter(|&r| self.matches_with(db, r, &needles)),
            );
        }
        if self.presentations {
            out.extend(
                db.presentation_ids()
                    .into_iter()
                    .map(Resource::Presentation)
                    .filter(|&r| self.matches_with(db, r, &needles)),
            );
        }
        if self.sessions {
            out.extend(
                db.session_ids()
                    .into_iter()
                    .map(Resource::Session)
                    .filter(|&r| self.matches_with(db, r, &needles)),
            );
        }
        if self.users {
            out.extend(
                db.user_ids()
                    .into_iter()
                    .map(Resource::User)
                    .filter(|&r| self.matches_with(db, r, &needles)),
            );
        }
        out
    }

    /// Plans the query: with any scope present, candidates come from
    /// the most selective applicable index per kind (topic postings,
    /// then the db-side venue/author indexes) and the shared predicate
    /// residual-filters them (counted as `idx.hit`); unscoped queries
    /// are the full enumeration (counted as `idx.scan_fallback`).
    /// Results are bit-identical to [`ResourceQuery::scan`].
    pub fn run(&self, db: &HiveDb, idx: &DbIndexes) -> Vec<Resource> {
        let needles = self.topic_needles();
        if self.venue.is_none() && self.author.is_none() && needles.is_empty() {
            hive_obs::count("idx.scan_fallback", 1);
            return self.scan(db);
        }
        hive_obs::count("idx.hit", 1);
        let mut out = Vec::new();

        let paper_candidates = |sink: &mut Vec<PaperId>| {
            if !needles.is_empty() {
                intersect_postings(
                    needles.iter().map(|n| idx.papers_on_topic(n)),
                    sink,
                );
                // Arena tail past the index watermark: scan it.
                sink.extend(db.paper_ids().into_iter().skip(idx.papers_len));
            } else if let Some(v) = self.venue {
                sink.extend_from_slice(db.papers_at(v));
            } else if let Some(a) = self.author {
                sink.extend_from_slice(db.papers_of(a));
            }
        };

        if self.papers {
            let mut cands: Vec<PaperId> = Vec::new();
            paper_candidates(&mut cands);
            out.extend(
                cands
                    .into_iter()
                    .map(Resource::Paper)
                    .filter(|&r| self.matches_with(db, r, &needles)),
            );
        }
        if self.presentations {
            let mut cands: Vec<crate::ids::PresentationId> = Vec::new();
            if !needles.is_empty() || self.author.is_some() {
                // Presentations inherit topic and authorship from their
                // paper: candidate presentations of candidate papers.
                let mut papers: Vec<PaperId> = Vec::new();
                paper_candidates(&mut papers);
                if needles.is_empty() {
                    if let Some(a) = self.author {
                        papers.clear();
                        papers.extend_from_slice(db.papers_of(a));
                    }
                }
                for p in papers {
                    cands.extend_from_slice(db.presentations_of_paper(p));
                }
            } else if let Some(v) = self.venue {
                for &s in db.sessions_of(v) {
                    cands.extend_from_slice(db.presentations_in(s));
                }
            }
            cands.sort_unstable();
            cands.dedup();
            out.extend(
                cands
                    .into_iter()
                    .map(Resource::Presentation)
                    .filter(|&r| self.matches_with(db, r, &needles)),
            );
        }
        if self.sessions {
            let mut cands: Vec<SessionId> = Vec::new();
            if !needles.is_empty() {
                intersect_postings(
                    needles.iter().map(|n| idx.sessions_on_topic(n)),
                    &mut cands,
                );
                cands.extend(db.session_ids().into_iter().skip(idx.sessions_len));
            } else if let Some(v) = self.venue {
                cands.extend_from_slice(db.sessions_of(v));
            } else {
                // Author-only: no chair index — the arena is small, the
                // predicate decides.
                cands.extend(db.session_ids());
            }
            out.extend(
                cands
                    .into_iter()
                    .map(Resource::Session)
                    .filter(|&r| self.matches_with(db, r, &needles)),
            );
        }
        if self.users && self.author.is_none() {
            let mut cands: Vec<UserId> = Vec::new();
            if !needles.is_empty() {
                intersect_postings(
                    needles.iter().map(|n| idx.users_on_topic(n)),
                    &mut cands,
                );
                cands.extend(db.user_ids().into_iter().skip(idx.users_len));
            } else if let Some(v) = self.venue {
                cands.extend(db.attendees(v));
            }
            out.extend(
                cands
                    .into_iter()
                    .map(Resource::User)
                    .filter(|&r| self.matches_with(db, r, &needles)),
            );
        }
        out
    }
}

/// Intersects ascending postings lists into `sink` (ascending). With a
/// single list this is a copy; an empty iterator yields nothing.
fn intersect_postings<'a, T, I>(mut lists: I, sink: &mut Vec<T>)
where
    T: Copy + Ord + 'a,
    I: Iterator<Item = &'a [T]>,
{
    let Some(first) = lists.next() else { return };
    let mut acc: Vec<T> = first.to_vec();
    for list in lists {
        let mut next = Vec::with_capacity(acc.len().min(list.len()));
        let (mut i, mut j) = (0, 0);
        while i < acc.len() && j < list.len() {
            match acc[i].cmp(&list[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    next.push(acc[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        acc = next;
        if acc.is_empty() {
            break;
        }
    }
    sink.extend(acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::tiny_world;
    use crate::model::ActivityCategory as Cat;

    #[test]
    fn tick_range_half_open_semantics() {
        let r = TickRange::between(Timestamp(10), Timestamp(20));
        assert!(!r.contains(Timestamp(9)));
        assert!(r.contains(Timestamp(10)));
        assert!(r.contains(Timestamp(19)));
        assert!(!r.contains(Timestamp(20)));
        assert!(TickRange::all().is_all());
        assert!(TickRange::since(Timestamp(5)).contains(Timestamp(u64::MAX - 1)));
        assert!(!TickRange::until(Timestamp(5)).contains(Timestamp(5)));
    }

    #[test]
    fn build_then_patch_equals_rebuild() {
        let (mut db, users, _, sessions, papers, _) = tiny_world();
        let mut idx = DbIndexes::build(&db);
        db.advance_clock(3);
        db.check_in(users[1], sessions[0]).unwrap();
        db.view_paper(users[2], papers[0]).unwrap();
        assert!(idx.patch(&db), "journal covers the suffix");
        assert_eq!(idx, DbIndexes::build(&db), "patched == cold rebuild");
        assert_eq!(idx.digest(), DbIndexes::build(&db).digest());
    }

    #[test]
    fn patch_refuses_foreign_or_restored_databases() {
        let (db, ..) = tiny_world();
        let mut idx = DbIndexes::build(&db);
        // A restored platform restarts its journal at generation 1; an
        // index stamped with the old (higher) generation must refuse.
        let restored = HiveDb::from_snapshot(&db.snapshot()).unwrap();
        assert!(idx.generation() > restored.generation());
        assert!(!idx.patch(&restored));
    }

    #[test]
    fn indexed_activity_query_matches_scan() {
        let (mut db, users, _, sessions, papers, _) = tiny_world();
        db.advance_clock(7);
        db.check_in(users[0], sessions[1]).unwrap();
        db.view_paper(users[1], papers[1]).unwrap();
        let idx = DbIndexes::build(&db);
        let queries = vec![
            ActivityQuery::new(),
            ActivityQuery::new().with_actors(vec![users[0]]),
            ActivityQuery::new().with_actors(vec![users[0], users[1], users[0]]),
            ActivityQuery::new().with_categories(vec![Cat::CheckIn, Cat::Browse]),
            ActivityQuery::new().within(TickRange::since(Timestamp(5))),
            ActivityQuery::new()
                .with_actors(vec![users[1]])
                .with_categories(vec![Cat::Browse])
                .within(TickRange::between(Timestamp(1), Timestamp(100))),
            ActivityQuery::new()
                .with_actors(vec![users[0]])
                .within(TickRange::between(Timestamp(100), Timestamp(1))),
            ActivityQuery::new().within(TickRange::between(Timestamp(100), Timestamp(1))),
        ];
        for q in queries {
            let fast: Vec<ActivityRecord> = q.run(&db, &idx).into_iter().copied().collect();
            let slow: Vec<ActivityRecord> = q.scan(&db).into_iter().copied().collect();
            assert_eq!(fast, slow, "query {q:?}");
        }
    }

    #[test]
    fn stale_index_tail_is_served_exactly() {
        let (mut db, users, _, sessions, _, _) = tiny_world();
        let idx = DbIndexes::build(&db);
        db.advance_clock(2);
        db.check_in(users[2], sessions[0]).unwrap();
        // idx not patched: the new record sits past the watermark.
        let q = ActivityQuery::new().with_actors(vec![users[2]]);
        let fast: Vec<ActivityRecord> = q.run(&db, &idx).into_iter().copied().collect();
        let slow: Vec<ActivityRecord> = q.scan(&db).into_iter().copied().collect();
        assert_eq!(fast, slow);
        assert!(fast.iter().any(|r| r.at == db.now()), "tail record found");
    }

    #[test]
    fn resource_query_matches_scan_and_prunes() {
        let (db, users, conf, ..) = tiny_world();
        let idx = DbIndexes::build(&db);
        let queries = vec![
            ResourceQuery::new(),
            ResourceQuery::new().at_venue(conf),
            ResourceQuery::new().by_author(users[0]),
            ResourceQuery::new().on_topic("tensor"),
            ResourceQuery::new().on_topic("tensor streams").with_users(false),
            ResourceQuery::new().at_venue(conf).on_topic("no such phrase anywhere"),
        ];
        for q in queries {
            assert_eq!(q.run(&db, &idx), q.scan(&db), "query {q:?}");
        }
    }

    #[test]
    fn planner_counts_hits_and_fallbacks() {
        let (db, users, ..) = tiny_world();
        let idx = DbIndexes::build(&db);
        hive_obs::reset();
        hive_obs::with_level(hive_obs::Level::Counts, || {
            let _ = ActivityQuery::new().with_actors(vec![users[0]]).run(&db, &idx);
            let _ = ActivityQuery::new().run(&db, &idx);
            let _ = ResourceQuery::new().on_topic("tensor").run(&db, &idx);
            let _ = ResourceQuery::new().run(&db, &idx);
        });
        let snap = hive_obs::snapshot();
        assert_eq!(snap.counter("idx.hit"), 2);
        assert_eq!(snap.counter("idx.scan_fallback"), 2);
        hive_obs::reset();
    }
}
