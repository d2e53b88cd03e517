//! Every secondary index of the platform database, and the activity-log
//! query planner over them.
//!
//! [`DbIndexes`] holds the activity log's postings per **actor** and
//! the row lookups [`HiveDb`] answers from (follow edges, connections,
//! check-ins, sessions per conference, papers per author, ...).
//! [`ActivityQuery`] plans a log query against the actor postings or a
//! binary-searched **time range**, falling back to a scan only when the
//! query names neither.
//!
//! # One hook per row kind
//!
//! [`HiveDb`] owns one [`DbIndexes`] and keeps it current at every
//! write: a mutator appends its row, then calls that row kind's hook
//! (`on_session`, `on_paper`, ..., `on_record` for the activity log).
//! Restore replays the same hooks over the arenas in id order and over
//! the log in order, so a restored or cold-rebuilt index is the one the
//! live writes built. Arenas are append-only and a row's indexed fields
//! never change after its append, so no hook ever retracts a posting.
//! No other code writes an index. The `idx.hit` / `idx.scan_fallback`
//! counters prove which query path ran.
//!
//! # Equivalence by construction
//!
//! Index postings only ever *prune candidates*; the final say on every
//! candidate is the same `matches` predicate the scan fallback uses,
//! and candidates are emitted in log order. A query therefore returns
//! bit-identical results through either path —
//! `tests/index_equivalence.rs` pins this across randomized query mixes.

use super::HiveDb;
use crate::clock::Timestamp;
use crate::ids::*;
use crate::model::*;
use std::collections::{BTreeMap, HashMap, HashSet};

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

    /// One map in key order: its length, then each key and its value.
    /// Hash maps are sorted first, so equal contents digest equal
    /// whatever their iteration order.
    fn eat_map<'a, K, V, M>(&mut self, map: M)
    where
        K: Entry + Ord + 'a,
        V: Entry + 'a,
        M: IntoIterator<Item = (&'a K, &'a V)>,
    {
        let mut entries: Vec<(&K, &V)> = map.into_iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        self.eat_u64(entries.len() as u64);
        for (k, v) in entries {
            k.eat(self);
            v.eat(self);
        }
    }
}

/// A key or a posting the index digest feeds to its hash. Lists enter
/// with their length, so no two distinct indexes render the same
/// stream.
trait Entry {
    fn eat(&self, h: &mut Fnv);
}

macro_rules! id_entries {
    ($($t:ty),*) => {$(
        impl Entry for $t {
            fn eat(&self, h: &mut Fnv) {
                h.eat_u64(u64::from(self.0));
            }
        }
    )*};
}

id_entries!(
    UserId, ConferenceId, SessionId, PaperId, PresentationId, QuestionId, AnswerId, CommentId,
    WorkpadId, TweetId
);

impl Entry for u32 {
    fn eat(&self, h: &mut Fnv) {
        h.eat_u64(u64::from(*self));
    }
}

impl Entry for usize {
    fn eat(&self, h: &mut Fnv) {
        h.eat_u64(*self as u64);
    }
}

impl Entry for QaTarget {
    fn eat(&self, h: &mut Fnv) {
        match self {
            QaTarget::Presentation(p) => {
                h.eat_u64(0);
                p.eat(h);
            }
            QaTarget::Session(s) => {
                h.eat_u64(1);
                s.eat(h);
            }
        }
    }
}

impl<A: Entry, B: Entry> Entry for (A, B) {
    fn eat(&self, h: &mut Fnv) {
        self.0.eat(h);
        self.1.eat(h);
    }
}

impl<T: Entry> Entry for Vec<T> {
    fn eat(&self, h: &mut Fnv) {
        h.eat_u64(self.len() as u64);
        for x in self {
            x.eat(h);
        }
    }
}

/// Every secondary index over one [`HiveDb`]: the planner's actor
/// postings and the row lookups the database answers from. The database
/// keeps it current through one hook per row kind (see the module docs).
///
/// Equality is structural: `tests/index_equivalence.rs` compares the
/// index kept at each write with a replay from a snapshot with `==`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DbIndexes {
    /// Log positions per actor, ascending.
    by_actor: BTreeMap<UserId, Vec<u32>>,
    /// `(follower, followee)` edges.
    pub(super) follow_index: HashSet<(UserId, UserId)>,
    /// Connection position per user pair, smaller id first.
    pub(super) connection_index: HashMap<(UserId, UserId), usize>,
    /// Check-in positions per user, ascending.
    pub(super) checkin_by_user: HashMap<UserId, Vec<usize>>,
    /// Check-in positions per session, ascending.
    pub(super) checkin_by_session: HashMap<SessionId, Vec<usize>>,
    pub(super) sessions_by_conf: HashMap<ConferenceId, Vec<SessionId>>,
    pub(super) papers_by_author: HashMap<UserId, Vec<PaperId>>,
    pub(super) papers_by_venue: HashMap<ConferenceId, Vec<PaperId>>,
    pub(super) presentations_by_session: HashMap<SessionId, Vec<PresentationId>>,
    pub(super) questions_by_target: HashMap<QaTarget, Vec<QuestionId>>,
    pub(super) answers_by_question: HashMap<QuestionId, Vec<AnswerId>>,
    pub(super) comments_by_target: HashMap<QaTarget, Vec<CommentId>>,
    pub(super) workpads_by_user: HashMap<UserId, Vec<WorkpadId>>,
    pub(super) tweets_by_session: HashMap<SessionId, Vec<TweetId>>,
}

impl DbIndexes {
    // ---- the hooks: one per row kind, called after the row's append ----

    pub(super) fn on_session(&mut self, id: SessionId, session: &Session) {
        self.sessions_by_conf.entry(session.conference).or_default().push(id);
    }

    pub(super) fn on_paper(&mut self, id: PaperId, paper: &Paper) {
        for &a in &paper.authors {
            self.papers_by_author.entry(a).or_default().push(id);
        }
        if let Some(v) = paper.venue {
            self.papers_by_venue.entry(v).or_default().push(id);
        }
    }

    pub(super) fn on_presentation(&mut self, id: PresentationId, pres: &Presentation) {
        self.presentations_by_session.entry(pres.session).or_default().push(id);
    }

    pub(super) fn on_question(&mut self, id: QuestionId, question: &Question) {
        self.questions_by_target.entry(question.target).or_default().push(id);
    }

    pub(super) fn on_answer(&mut self, id: AnswerId, answer: &Answer) {
        self.answers_by_question.entry(answer.question).or_default().push(id);
    }

    pub(super) fn on_comment(&mut self, id: CommentId, comment: &Comment) {
        self.comments_by_target.entry(comment.target).or_default().push(id);
    }

    pub(super) fn on_workpad(&mut self, id: WorkpadId, pad: &Workpad) {
        self.workpads_by_user.entry(pad.owner).or_default().push(id);
    }

    pub(super) fn on_tweet(&mut self, id: TweetId, tweet: &Tweet) {
        self.tweets_by_session.entry(tweet.session).or_default().push(id);
    }

    pub(super) fn on_checkin(&mut self, pos: usize, checkin: &CheckIn) {
        self.checkin_by_user.entry(checkin.user).or_default().push(pos);
        self.checkin_by_session.entry(checkin.session).or_default().push(pos);
    }

    pub(super) fn on_follow(&mut self, follow: &Follow) {
        self.follow_index.insert((follow.follower, follow.followee));
    }

    pub(super) fn on_connection(&mut self, pos: usize, conn: &Connection) {
        self.connection_index.insert(HiveDb::pair_key(conn.from, conn.to), pos);
    }

    pub(super) fn on_record(&mut self, pos: usize, rec: &ActivityRecord) {
        self.by_actor.entry(rec.user).or_default().push(pos as u32);
    }

    /// Ascending log positions of `actor`'s records.
    pub fn actor_postings(&self, actor: UserId) -> &[u32] {
        self.by_actor.get(&actor).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Deterministic digest of every map in the index (FNV-1a over each
    /// map in key order, every key and posting list with its length).
    /// The sim-harness fingerprint oracle uses this to prove that the
    /// index kept at each write, a cold replay and a replication
    /// follower's index are bit-identical.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat_map(&self.by_actor);
        // lint:allow(determinism-taint) -- sorted before hashing
        let mut follows: Vec<(UserId, UserId)> = self.follow_index.iter().copied().collect();
        follows.sort_unstable();
        follows.eat(&mut h);
        h.eat_map(&self.connection_index);
        h.eat_map(&self.checkin_by_user);
        h.eat_map(&self.checkin_by_session);
        h.eat_map(&self.sessions_by_conf);
        h.eat_map(&self.papers_by_author);
        h.eat_map(&self.papers_by_venue);
        h.eat_map(&self.presentations_by_session);
        h.eat_map(&self.questions_by_target);
        h.eat_map(&self.answers_by_question);
        h.eat_map(&self.comments_by_target);
        h.eat_map(&self.workpads_by_user);
        h.eat_map(&self.tweets_by_session);
        h.0
    }
}

/// Clips an ascending posting list to the positions whose record falls
/// inside `range`. Positions ascend and the log is clock-ordered, so
/// both clips are binary searches over the posting itself. An inverted
/// window (start after end) clips to nothing, as the scan's `contains`
/// test does.
fn clip_posting<'a>(posting: &'a [u32], log: &[ActivityRecord], range: &TickRange) -> &'a [u32] {
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
    /// sources, in priority order: actor postings, a binary search on
    /// the clock-ordered log for a bounded window (each counted as
    /// `idx.hit`), else the full scan (counted as `idx.scan_fallback`).
    /// `matches` applies the categories to every candidate. Records come
    /// back in log order either way, so downstream stable sorts are
    /// bit-identical across paths.
    pub fn run<'a>(&self, db: &'a HiveDb) -> Vec<&'a ActivityRecord> {
        let idx = db.indexes();
        let log = db.activity_log();
        let mut positions: Vec<u32>;
        if !self.actors.is_empty() {
            hive_obs::count("idx.hit", 1);
            positions = Vec::new();
            let mut actors = self.actors.clone();
            actors.sort_unstable();
            actors.dedup();
            for a in actors {
                positions.extend_from_slice(clip_posting(idx.actor_postings(a), log, &self.range));
            }
            // Distinct actors own distinct records: merge is a sort.
            positions.sort_unstable();
        } else if !self.range.is_all() {
            hive_obs::count("idx.hit", 1);
            let lo = log.partition_point(|r| r.at < self.range.start());
            let hi = log.partition_point(|r| r.at < self.range.end());
            positions = (lo..hi).map(|p| p as u32).collect();
        } else {
            hive_obs::count("idx.scan_fallback", 1);
            return self.scan(db);
        }
        positions
            .into_iter()
            .map(|p| &log[p as usize])
            .filter(|r| self.matches(r))
            .collect()
    }
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

    /// The index the writes built equals the one a restore replays.
    #[test]
    fn build_then_patch_equals_rebuild() {
        let (mut db, users, _, sessions, papers, _) = tiny_world();
        db.advance_clock(3);
        db.check_in(users[1], sessions[0]).unwrap();
        db.view_paper(users[2], papers[0]).unwrap();
        let replayed = HiveDb::from_snapshot(&db.snapshot()).unwrap();
        assert_eq!(db.indexes(), replayed.indexes(), "live index == replay");
        assert_eq!(db.indexes().digest(), replayed.indexes().digest());
    }

    #[test]
    fn digest_tells_postings_apart() {
        // by_actor {u0: [1, 2], u2: [3]} against {u0: [1], u2: [2, 3]}:
        // without lengths both render the stream 0 1 2 2 3.
        let rec = |u: u32| ActivityRecord {
            user: UserId(u),
            event: ActivityEvent::ViewPaper(PaperId(0)),
            at: Timestamp(0),
        };
        let (mut a, mut b) = (DbIndexes::default(), DbIndexes::default());
        for (pos, ua, ub) in [(1, 0, 0), (2, 0, 2), (3, 2, 2)] {
            a.on_record(pos, &rec(ua));
            b.on_record(pos, &rec(ub));
        }
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn one_edit_to_any_map_moves_the_digest() {
        let (mut db, users, _, sessions, _, pres) = tiny_world();
        db.follow(users[0], users[1]).unwrap();
        db.request_connection(users[0], users[2]).unwrap();
        db.check_in(users[1], sessions[0]).unwrap();
        let q = db.ask_question(users[1], QaTarget::Presentation(pres), "why?", true).unwrap();
        db.answer_question(users[0], q, "because").unwrap();
        db.comment(users[2], QaTarget::Session(sessions[0]), "nice").unwrap();
        db.create_workpad(users[0], "pad").unwrap();
        let base = db.indexes().clone();
        type Edit = fn(&mut DbIndexes);
        let edits: [(&str, Edit); 14] = [
            ("by_actor", |x| x.by_actor.entry(UserId(9)).or_default().push(0)),
            ("follow_index", |x| {
                x.follow_index.insert((UserId(2), UserId(0)));
            }),
            ("connection_index", |x| {
                x.connection_index.insert((UserId(1), UserId(2)), 0);
            }),
            ("checkin_by_user", |x| x.checkin_by_user.entry(UserId(0)).or_default().push(0)),
            ("checkin_by_session", |x| x.checkin_by_session.entry(SessionId(1)).or_default().push(0)),
            ("sessions_by_conf", |x| x.sessions_by_conf.entry(ConferenceId(1)).or_default().push(SessionId(0))),
            ("papers_by_author", |x| x.papers_by_author.entry(UserId(0)).or_default().push(PaperId(1))),
            ("papers_by_venue", |x| x.papers_by_venue.entry(ConferenceId(1)).or_default().push(PaperId(0))),
            ("presentations_by_session", |x| {
                x.presentations_by_session.entry(SessionId(0)).or_default().push(PresentationId(0))
            }),
            ("questions_by_target", |x| {
                x.questions_by_target.entry(QaTarget::Session(SessionId(0))).or_default().push(QuestionId(0))
            }),
            ("answers_by_question", |x| x.answers_by_question.entry(QuestionId(0)).or_default().push(AnswerId(1))),
            ("comments_by_target", |x| {
                x.comments_by_target.entry(QaTarget::Session(SessionId(1))).or_default().push(CommentId(0))
            }),
            ("workpads_by_user", |x| x.workpads_by_user.entry(UserId(1)).or_default().push(WorkpadId(0))),
            ("tweets_by_session", |x| x.tweets_by_session.entry(SessionId(0)).or_default().push(TweetId(0))),
        ];
        for (map, edit) in edits {
            let mut edited = base.clone();
            edit(&mut edited);
            assert_ne!(edited, base, "{map}: the edit must change the index");
            assert_ne!(edited.digest(), base.digest(), "{map}: the digest must move");
        }
    }

    #[test]
    fn indexed_activity_query_matches_scan() {
        let (mut db, users, _, sessions, papers, _) = tiny_world();
        db.advance_clock(7);
        db.check_in(users[0], sessions[1]).unwrap();
        db.view_paper(users[1], papers[1]).unwrap();
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
            let fast: Vec<ActivityRecord> = q.run(&db).into_iter().copied().collect();
            let slow: Vec<ActivityRecord> = q.scan(&db).into_iter().copied().collect();
            assert_eq!(fast, slow, "query {q:?}");
        }
    }

    #[test]
    fn planner_counts_hits_and_fallbacks() {
        let (db, users, ..) = tiny_world();
        hive_obs::reset();
        hive_obs::with_level(hive_obs::Level::Counts, || {
            let _ = ActivityQuery::new().with_actors(vec![users[0]]).run(&db);
            let _ = ActivityQuery::new().run(&db);
        });
        let snap = hive_obs::snapshot();
        assert_eq!(snap.counter("idx.hit"), 1);
        assert_eq!(snap.counter("idx.scan_fallback"), 1);
        hive_obs::reset();
    }
}
