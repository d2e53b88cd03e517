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
//! # Posting tables a clone shares
//!
//! Every id-keyed lookup is a `Postings` table: list `k` holds the
//! postings of the key whose arena index is `k`, so a read is an index,
//! not a hash. The list pointers sit in the 64-slot copy-on-write
//! chunks of `db/chunk.rs`, and each list sits behind its own `Arc`.
//! A clone (the one a publish makes) copies chunk pointers only. The
//! first append to a key after a clone copies that key's chunk of list
//! pointers and the one list it appends to, and adds both to the
//! `core.db.cow_postings` counter. A [`QaTarget`] key has one dense key
//! space per target kind. The follow and connection lookups are keyed
//! by a user pair and stay hash tables of `Copy` entries.
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

use super::chunk::{writable, ChunkVec};
use super::HiveDb;
use crate::clock::Timestamp;
use crate::ids::*;
use crate::model::*;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

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

/// A key, a posting or a posting table the index digest feeds to its
/// hash. Lists enter with their length, so no two distinct indexes
/// render the same stream.
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
    UserId, SessionId, PaperId, PresentationId, QuestionId, AnswerId, CommentId, WorkpadId, TweetId
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

impl<A: Entry, B: Entry> Entry for (A, B) {
    fn eat(&self, h: &mut Fnv) {
        self.0.eat(h);
        self.1.eat(h);
    }
}

impl<T: Entry> Entry for [T] {
    fn eat(&self, h: &mut Fnv) {
        h.eat_u64(self.len() as u64);
        for x in self {
            x.eat(h);
        }
    }
}

impl<K, V: Entry> Entry for Postings<K, V> {
    /// As [`Fnv::eat_map`] renders a map from key to list holding the
    /// non-empty lists: their number, then each key and list in key
    /// order.
    fn eat(&self, h: &mut Fnv) {
        h.eat_u64(self.non_empty().count() as u64);
        eat_lists(h, self, None);
    }
}

impl<V: Entry> Entry for ByTarget<V> {
    /// As [`Fnv::eat_map`] renders a map keyed by [`QaTarget`]: all
    /// non-empty lists counted, then the presentations' before the
    /// sessions' (the target's order), each key as its kind and id.
    fn eat(&self, h: &mut Fnv) {
        let lists = self.presentation.non_empty().count() + self.session.non_empty().count();
        h.eat_u64(lists as u64);
        eat_lists(h, &self.presentation, Some(0));
        eat_lists(h, &self.session, Some(1));
    }
}

/// Feeds a table's non-empty lists in key order: `kind` first when the
/// key is a [`QaTarget`]'s, then the key's id and the list.
fn eat_lists<K, V: Entry>(h: &mut Fnv, table: &Postings<K, V>, kind: Option<u64>) {
    for (k, list) in table.non_empty() {
        if let Some(kind) = kind {
            h.eat_u64(kind);
        }
        h.eat_u64(k as u64);
        list.eat(h);
    }
}

/// Copies a write makes out of the posting tables a clone shares: list
/// pointers (a chunk of them) and list entries.
const COW_POSTINGS: &str = "core.db.cow_postings";

/// An id that numbers a dense key space: its arena index is its slot.
pub(super) trait DenseKey: Copy {
    /// The key's slot in a [`Postings`] table.
    fn slot(self) -> usize;
}

macro_rules! dense_keys {
    ($($t:ty),*) => {$(
        impl DenseKey for $t {
            fn slot(self) -> usize {
                self.index()
            }
        }
    )*};
}

dense_keys!(UserId, ConferenceId, SessionId, PresentationId, QuestionId);

/// The posting lists of one dense key space (see the module docs): slot
/// `k` holds key `k`'s list in a chunk a clone shares, each list behind
/// its own `Arc`. A key never written has no list, so growing the table
/// allocates none.
#[derive(Clone)]
pub(super) struct Postings<K, V> {
    lists: ChunkVec<Option<Arc<Vec<V>>>>,
    key: PhantomData<K>,
}

impl<K, V> Postings<K, V> {
    /// Slot `k`'s list; empty past the end or for a key never written.
    fn list(&self, k: usize) -> &[V] {
        match self.lists.get(k) {
            Some(Some(list)) => list,
            _ => &[],
        }
    }

    /// The non-empty lists with their slots, in key order.
    fn non_empty(&self) -> impl Iterator<Item = (usize, &[V])> {
        self.lists.iter().enumerate().filter_map(|(k, list)| match list.as_deref() {
            Some(list) if !list.is_empty() => Some((k, list.as_slice())),
            _ => None,
        })
    }
}

impl<K: DenseKey, V> Postings<K, V> {
    /// `key`'s postings in append order.
    pub(super) fn get(&self, key: K) -> &[V] {
        self.list(key.slot())
    }
}

impl<K: DenseKey, V: Clone> Postings<K, V> {
    /// Appends `v` to `key`'s list, growing the table to `key` first.
    /// While a clone shares them, the key's chunk of list pointers and
    /// its list are copied first (counted on `core.db.cow_postings`).
    pub(super) fn push(&mut self, key: K, v: V) {
        let k = key.slot();
        while self.lists.len() <= k {
            self.lists.push_counted(None, COW_POSTINGS);
        }
        if let Some(slot) = self.lists.get_mut_counted(k, COW_POSTINGS) {
            let list = slot.get_or_insert_with(Arc::default);
            let room = list.len() + 1;
            writable(list, room, COW_POSTINGS).push(v);
        }
    }
}

impl<K, V> Default for Postings<K, V> {
    fn default() -> Self {
        Postings { lists: ChunkVec::default(), key: PhantomData }
    }
}

impl<K, V: PartialEq> PartialEq for Postings<K, V> {
    /// Equal when every key has the same list, so empty lists past the
    /// end of the shorter table do not count.
    fn eq(&self, other: &Self) -> bool {
        let keys = self.lists.len().max(other.lists.len());
        (0..keys).all(|k| self.list(k) == other.list(k))
    }
}

impl<K, V: Eq> Eq for Postings<K, V> {}

impl<K, V: fmt::Debug> fmt::Debug for Postings<K, V> {
    /// Renders the non-empty lists as a map from slot to list.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.non_empty()).finish()
    }
}

/// Postings keyed by a [`QaTarget`]: one dense key space per kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(super) struct ByTarget<V> {
    presentation: Postings<PresentationId, V>,
    session: Postings<SessionId, V>,
}

impl<V> ByTarget<V> {
    /// The target's postings in append order.
    pub(super) fn get(&self, target: QaTarget) -> &[V] {
        match target {
            QaTarget::Presentation(p) => self.presentation.get(p),
            QaTarget::Session(s) => self.session.get(s),
        }
    }
}

impl<V: Clone> ByTarget<V> {
    /// Appends `v` to the target's list.
    fn push(&mut self, target: QaTarget, v: V) {
        match target {
            QaTarget::Presentation(p) => self.presentation.push(p, v),
            QaTarget::Session(s) => self.session.push(s, v),
        }
    }
}

impl<V> Default for ByTarget<V> {
    fn default() -> Self {
        ByTarget { presentation: Postings::default(), session: Postings::default() }
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
    by_actor: Postings<UserId, u32>,
    /// `(follower, followee)` edges.
    pub(super) follow_index: HashSet<(UserId, UserId)>,
    /// Connection position per user pair, smaller id first.
    pub(super) connection_index: HashMap<(UserId, UserId), usize>,
    /// Check-in positions per user, ascending.
    pub(super) checkin_by_user: Postings<UserId, usize>,
    /// Check-in positions per session, ascending.
    pub(super) checkin_by_session: Postings<SessionId, usize>,
    pub(super) sessions_by_conf: Postings<ConferenceId, SessionId>,
    pub(super) papers_by_author: Postings<UserId, PaperId>,
    pub(super) papers_by_venue: Postings<ConferenceId, PaperId>,
    pub(super) presentations_by_session: Postings<SessionId, PresentationId>,
    pub(super) questions_by_target: ByTarget<QuestionId>,
    pub(super) answers_by_question: Postings<QuestionId, AnswerId>,
    pub(super) comments_by_target: ByTarget<CommentId>,
    pub(super) workpads_by_user: Postings<UserId, WorkpadId>,
    pub(super) tweets_by_session: Postings<SessionId, TweetId>,
}

impl DbIndexes {
    // ---- the hooks: one per row kind, called after the row's append ----

    pub(super) fn on_session(&mut self, id: SessionId, session: &Session) {
        self.sessions_by_conf.push(session.conference, id);
    }

    pub(super) fn on_paper(&mut self, id: PaperId, paper: &Paper) {
        for &a in &paper.authors {
            self.papers_by_author.push(a, id);
        }
        if let Some(v) = paper.venue {
            self.papers_by_venue.push(v, id);
        }
    }

    pub(super) fn on_presentation(&mut self, id: PresentationId, pres: &Presentation) {
        self.presentations_by_session.push(pres.session, id);
    }

    pub(super) fn on_question(&mut self, id: QuestionId, question: &Question) {
        self.questions_by_target.push(question.target, id);
    }

    pub(super) fn on_answer(&mut self, id: AnswerId, answer: &Answer) {
        self.answers_by_question.push(answer.question, id);
    }

    pub(super) fn on_comment(&mut self, id: CommentId, comment: &Comment) {
        self.comments_by_target.push(comment.target, id);
    }

    pub(super) fn on_workpad(&mut self, id: WorkpadId, pad: &Workpad) {
        self.workpads_by_user.push(pad.owner, id);
    }

    pub(super) fn on_tweet(&mut self, id: TweetId, tweet: &Tweet) {
        self.tweets_by_session.push(tweet.session, id);
    }

    pub(super) fn on_checkin(&mut self, pos: usize, checkin: &CheckIn) {
        self.checkin_by_user.push(checkin.user, pos);
        self.checkin_by_session.push(checkin.session, pos);
    }

    pub(super) fn on_follow(&mut self, follow: &Follow) {
        self.follow_index.insert((follow.follower, follow.followee));
    }

    pub(super) fn on_connection(&mut self, pos: usize, conn: &Connection) {
        self.connection_index.insert(HiveDb::pair_key(conn.from, conn.to), pos);
    }

    pub(super) fn on_record(&mut self, pos: usize, rec: &ActivityRecord) {
        self.by_actor.push(rec.user, pos as u32);
    }

    /// Ascending log positions of `actor`'s records.
    pub fn actor_postings(&self, actor: UserId) -> &[u32] {
        self.by_actor.get(actor)
    }

    /// Deterministic digest of every map in the index (FNV-1a over each
    /// map in key order, every key and posting list with its length; a
    /// posting table counts only its non-empty lists, as a map holding
    /// them would). The sim-harness fingerprint oracle uses this to
    /// prove that the index kept at each write, a cold replay and a
    /// replication follower's index are bit-identical.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        self.by_actor.eat(&mut h);
        // lint:allow(determinism-taint) -- sorted before hashing
        let mut follows: Vec<(UserId, UserId)> = self.follow_index.iter().copied().collect();
        follows.sort_unstable();
        follows.eat(&mut h);
        h.eat_map(&self.connection_index);
        self.checkin_by_user.eat(&mut h);
        self.checkin_by_session.eat(&mut h);
        self.sessions_by_conf.eat(&mut h);
        self.papers_by_author.eat(&mut h);
        self.papers_by_venue.eat(&mut h);
        self.presentations_by_session.eat(&mut h);
        self.questions_by_target.eat(&mut h);
        self.answers_by_question.eat(&mut h);
        self.comments_by_target.eat(&mut h);
        self.workpads_by_user.eat(&mut h);
        self.tweets_by_session.eat(&mut h);
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
        let edits: [(&str, Edit); 16] = [
            ("by_actor", |x| x.by_actor.push(UserId(9), 0)),
            ("follow_index", |x| {
                x.follow_index.insert((UserId(2), UserId(0)));
            }),
            ("connection_index", |x| {
                x.connection_index.insert((UserId(1), UserId(2)), 0);
            }),
            ("checkin_by_user", |x| x.checkin_by_user.push(UserId(0), 0)),
            ("checkin_by_session", |x| x.checkin_by_session.push(SessionId(1), 0)),
            ("sessions_by_conf", |x| x.sessions_by_conf.push(ConferenceId(1), SessionId(0))),
            ("papers_by_author", |x| x.papers_by_author.push(UserId(0), PaperId(1))),
            ("papers_by_venue", |x| x.papers_by_venue.push(ConferenceId(1), PaperId(0))),
            ("presentations_by_session", |x| {
                x.presentations_by_session.push(SessionId(0), PresentationId(0))
            }),
            ("questions on a session", |x| {
                x.questions_by_target.push(QaTarget::Session(SessionId(0)), QuestionId(0))
            }),
            ("questions on a presentation", |x| {
                x.questions_by_target.push(QaTarget::Presentation(PresentationId(0)), QuestionId(1))
            }),
            ("answers_by_question", |x| x.answers_by_question.push(QuestionId(0), AnswerId(1))),
            ("comments on a session", |x| {
                x.comments_by_target.push(QaTarget::Session(SessionId(1)), CommentId(0))
            }),
            ("comments on a presentation", |x| {
                x.comments_by_target.push(QaTarget::Presentation(PresentationId(0)), CommentId(1))
            }),
            ("workpads_by_user", |x| x.workpads_by_user.push(UserId(1), WorkpadId(0))),
            ("tweets_by_session", |x| x.tweets_by_session.push(SessionId(0), TweetId(0))),
        ];
        for (map, edit) in edits {
            let mut edited = base.clone();
            edit(&mut edited);
            assert_ne!(edited, base, "{map}: the edit must change the index");
            assert_ne!(edited.digest(), base.digest(), "{map}: the digest must move");
        }
    }

    fn cow_postings<R>(f: impl FnOnce() -> R) -> (R, u64) {
        hive_obs::with_level(hive_obs::Level::Counts, || {
            hive_obs::reset();
            let out = f();
            (out, hive_obs::snapshot().counter(COW_POSTINGS))
        })
    }

    #[test]
    fn postings_equal_up_to_trailing_empty_lists() {
        let mut a: Postings<UserId, u32> = Postings::default();
        a.push(UserId(3), 7);
        a.push(UserId(1), 5);
        assert_eq!((a.get(UserId(0)), a.get(UserId(1)), a.get(UserId(9))), (&[][..], &[5][..], &[][..]));
        let mut b = a.clone();
        b.lists.push(None);
        b.lists.push(Some(Arc::default()));
        assert_eq!(a, b, "trailing empty lists do not count");
        let digest = |p: &Postings<UserId, u32>| {
            let mut h = Fnv::new();
            p.eat(&mut h);
            h.0
        };
        assert_eq!(digest(&a), digest(&b));
        assert_eq!(format!("{a:?}"), "{1: [5], 3: [7]}");
        b.push(UserId(4), 0);
        assert_ne!(a, b);
        assert_ne!(digest(&a), digest(&b));
    }

    /// A clone shares every chunk of list pointers and every list; the
    /// first append to a key copies the key's chunk and its list, once.
    #[test]
    fn an_append_copies_one_chunk_of_pointers_and_one_list() {
        let mut table: Postings<UserId, u32> = Postings::default();
        for k in 0..130u32 {
            for v in 0..=k % 3 {
                table.push(UserId(k), v);
            }
        }
        // Nothing shares the table: appends copy nothing.
        let ((), copied) = cow_postings(|| table.push(UserId(70), 9));
        assert_eq!(copied, 0);
        let pinned = table.clone();
        let ((), copied) = cow_postings(|| {
            table.push(UserId(70), 10);
            table.push(UserId(70), 11);
            table.push(UserId(71), 12);
        });
        assert_eq!(copied, 64 + 3 + 3, "the chunk of slots 64..128 and the lists of keys 70 and 71");
        assert_eq!(pinned.get(UserId(70)), &[0, 1, 9]);
        assert_eq!(table.get(UserId(70)), &[0, 1, 9, 10, 11]);
        assert_eq!(pinned.get(UserId(72)), table.get(UserId(72)));
        let list = |p: &Postings<UserId, u32>, k: usize| p.lists[k].clone();
        let shared = |k: usize| list(&pinned, k).zip(list(&table, k)).is_some_and(|(a, b)| Arc::ptr_eq(&a, &b));
        assert!(shared(72) && shared(3) && !shared(70), "only the written list was copied");
        // A new key past the end copies the shared tail chunk of slots.
        let ((), copied) = cow_postings(|| table.push(UserId(131), 1));
        assert_eq!(copied, 2, "slots 128 and 129 of the shared tail");
        assert_eq!(pinned.get(UserId(131)), &[] as &[u32]);
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
