//! The in-memory, multi-indexed platform database.
//!
//! `HiveDb` replaces the paper's Joomla/MySQL stack: arena storage per
//! entity type, secondary indexes for every access path the services
//! need ([`index::DbIndexes`], kept current by one hook per row kind),
//! an append-only activity log, and a logical clock. All mutating
//! operations validate referential integrity and record activity.
//!
//! Each arena is a `ChunkVec` (`db/chunk.rs`): rows in copy-on-write
//! chunks of 64, so the clone a publish makes shares every row, and
//! the writer's first append or in-place write into a chunk a published
//! epoch still shares copies that chunk alone. The indexes, the log and
//! the delta journal are copied whole. A mutator decides through `&self`
//! whether to refuse and takes `&mut` to a row only once it accepts, so
//! a refused op copies no chunk.

use crate::clock::{Clock, Timestamp};
use crate::error::{HiveError, Result};
use crate::ids::*;
use crate::model::*;
use chunk::ChunkVec;
use index::DbIndexes;
use std::collections::{HashMap, HashSet};

mod chunk;
pub mod index;

/// Window of the mutation delta journal: [`HiveDb::deltas_since`]
/// answers the last `DB_DELTA_LOG_CAP` deltas. A derived cache that falls
/// further than this behind the database can no longer be patched and
/// must rebuild. The journal is compacted lazily, so it holds at most
/// twice this many entries.
pub const DB_DELTA_LOG_CAP: usize = 4096;

/// One database mutation, classified for delta cache maintenance.
///
/// Every generation bump appends exactly one `DbDelta`, so a derived
/// cache stamped with generation `g` can ask [`HiveDb::deltas_since`]
/// for the precise mutation suffix it missed. The patchable variants
/// carry enough context to derive the knowledge-network and
/// relationship-store edges without re-reading the database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DbDelta {
    /// No derived graph edge depends on this mutation (workpads, tweets,
    /// answers, filters, ...): caches re-stamp and move on.
    Neutral,
    /// Entity creation or content revision: derived caches (content
    /// vectors, concept maps, static graph layers) must rebuild.
    Structural,
    /// `follower` started following `followee`.
    Follow {
        /// The user who followed.
        follower: UserId,
        /// The user being followed.
        followee: UserId,
    },
    /// A connection request was accepted (`a <= b`, pair-normalized).
    Connect {
        /// Smaller user id of the pair.
        a: UserId,
        /// Larger user id of the pair.
        b: UserId,
    },
    /// `user` checked into `session`.
    CheckIn {
        /// The user who checked in.
        user: UserId,
        /// The session checked into.
        session: SessionId,
    },
    /// `user` registered attendance at `conf` (first time only).
    Attend {
        /// The attendee.
        user: UserId,
        /// The conference edition.
        conf: ConferenceId,
    },
    /// `author` asked a question in `session`; `paper` is set when the
    /// question targeted a presentation.
    Discuss {
        /// The question author.
        author: UserId,
        /// The session hosting the discussion.
        session: SessionId,
        /// The presented paper, when the target was a presentation.
        paper: Option<PaperId>,
    },
    /// `user` viewed `paper`.
    ViewPaper {
        /// The viewer.
        user: UserId,
        /// The viewed paper.
        paper: PaperId,
    },
}

impl DbDelta {
    /// True when this mutation invalidates the static derived layers
    /// (content vectors, concept maps, static graph layers) and forces
    /// a full rebuild instead of an in-place patch.
    ///
    /// Exhaustive on purpose (lint R10): adding a variant must force a
    /// decision here instead of silently defaulting to "patchable".
    pub fn is_structural(&self) -> bool {
        match self {
            DbDelta::Structural => true,
            DbDelta::Neutral
            | DbDelta::Follow { .. }
            | DbDelta::Connect { .. }
            | DbDelta::CheckIn { .. }
            | DbDelta::Attend { .. }
            | DbDelta::Discuss { .. }
            | DbDelta::ViewPaper { .. } => false,
        }
    }

    /// True when this mutation adds at least one edge to the dynamic
    /// knowledge-network layers, i.e. a patch changes the network's CSR
    /// in place. Exhaustive on purpose (lint R10).
    pub fn touches_graph(&self) -> bool {
        match self {
            DbDelta::Neutral => false,
            DbDelta::Structural
            | DbDelta::Follow { .. }
            | DbDelta::Connect { .. }
            | DbDelta::CheckIn { .. }
            | DbDelta::Attend { .. }
            | DbDelta::Discuss { .. }
            | DbDelta::ViewPaper { .. } => true,
        }
    }
}

/// The platform database.
#[derive(Clone, Debug, Default)]
pub struct HiveDb {
    clock: Clock,
    // Arenas: a clone shares their chunks.
    users: ChunkVec<User>,
    conferences: ChunkVec<Conference>,
    sessions: ChunkVec<Session>,
    papers: ChunkVec<Paper>,
    presentations: ChunkVec<Presentation>,
    questions: ChunkVec<Question>,
    answers: ChunkVec<Answer>,
    comments: ChunkVec<Comment>,
    workpads: ChunkVec<Workpad>,
    collections: ChunkVec<Collection>,
    tweets: ChunkVec<Tweet>,
    // Social state.
    follows: ChunkVec<Follow>,
    /// Per-follow category filter: when present, only events whose
    /// category is listed reach the follower's feed ("Zach highlights the
    /// set of researchers whose (session check-in, question, comment,
    /// answer) activities he would like to follow").
    follow_filters: HashMap<(UserId, UserId), Vec<String>>,
    connections: ChunkVec<Connection>,
    checkins: ChunkVec<CheckIn>,
    attendance: HashSet<(UserId, ConferenceId)>,
    active_workpad: HashMap<UserId, WorkpadId>,
    // Activity log.
    log: Vec<ActivityRecord>,
    /// Monotone mutation counter. Bumped by every content mutation (but
    /// not by clock advancement), so derived caches — the knowledge
    /// network, the relationship [`hive_store::GraphView`] — can detect
    /// staleness with one integer compare.
    generation: u64,
    /// Delta journal: one entry per generation bump, so entry `i`
    /// describes the mutation that moved the counter from
    /// `delta_base + i` to `delta_base + i + 1`. Holds at least the last
    /// [`DB_DELTA_LOG_CAP`] entries and fewer than twice that many;
    /// `delta_base` tracks how many entries have been compacted away.
    deltas: Vec<DbDelta>,
    delta_base: u64,
    /// Every secondary index. Each mutator calls its row kind's hook
    /// right after the append, and restore replays the hooks.
    indexes: DbIndexes,
}

macro_rules! getter {
    ($get:ident, $arena:ident, $idt:ty, $t:ty, $kind:literal) => {
        /// Fetches the entity, or `NotFound`.
        pub fn $get(&self, id: $idt) -> Result<&$t> {
            self.$arena
                .get(id.index())
                .ok_or_else(|| HiveError::not_found($kind, id))
        }
    };
}

impl HiveDb {
    /// Creates an empty platform.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- clock -------------------------------------------------------

    /// Current logical time.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Advances the logical clock.
    pub fn advance_clock(&mut self, dt: u64) -> Timestamp {
        self.clock.advance(dt)
    }

    /// Jumps the clock forward to `t` (never backwards).
    pub fn advance_clock_to(&mut self, t: Timestamp) {
        self.clock.advance_to(t);
    }

    /// The current mutation generation. Strictly increases on every
    /// content mutation; clock advancement does not count. Derived
    /// caches snapshot this value and compare to detect staleness.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The sole generation bump site: advances the counter and journals
    /// the classified delta. Compaction is amortized: once the journal
    /// reaches twice [`DB_DELTA_LOG_CAP`] it drains down to the last
    /// `DB_DELTA_LOG_CAP`, so each bump moves at most one entry on average.
    fn bump(&mut self, delta: DbDelta) {
        self.generation += 1; // lint:allow(delta-log) -- the one legal bump
        self.deltas.push(delta);
        if self.deltas.len() >= 2 * DB_DELTA_LOG_CAP {
            let excess = self.deltas.len() - DB_DELTA_LOG_CAP;
            self.deltas.drain(..excess);
            self.delta_base += excess as u64;
        }
    }

    /// The mutation deltas applied after generation `generation`, in
    /// order, or `None` when `generation` lies before the last
    /// [`DB_DELTA_LOG_CAP`] deltas (or never existed) and the caller must
    /// rebuild. Entries kept past the window while compaction is pending
    /// are never handed out.
    pub fn deltas_since(&self, generation: u64) -> Option<&[DbDelta]> {
        let oldest =
            self.delta_base.max(self.generation.saturating_sub(DB_DELTA_LOG_CAP as u64));
        if generation > self.generation || generation < oldest {
            return None;
        }
        Some(&self.deltas[(generation - self.delta_base) as usize..])
    }

    /// Logs `event` at the current time and journals its
    /// [`Self::delta_of`].
    fn record(&mut self, user: UserId, event: ActivityEvent) {
        let rec = ActivityRecord { user, event, at: self.clock.now() };
        self.bump(self.delta_of(&rec));
        let idx = self.log.len();
        self.log.push(rec);
        self.indexes.on_record(idx, &self.log[idx]);
    }

    /// The delta a logged event journals, read by both [`Self::record`]
    /// and [`Self::replay_deltas`]. A question resolves to its session
    /// and presented paper through the arenas. Exhaustive on purpose: a
    /// new event kind must decide what it does to the derived caches.
    fn delta_of(&self, rec: &ActivityRecord) -> DbDelta {
        let user = rec.user;
        match rec.event {
            ActivityEvent::AttendConference(conf) => DbDelta::Attend { user, conf },
            ActivityEvent::CheckIn(session) => DbDelta::CheckIn { user, session },
            ActivityEvent::ViewPaper(paper) => DbDelta::ViewPaper { user, paper },
            ActivityEvent::Follow(followee) => DbDelta::Follow { follower: user, followee },
            ActivityEvent::ConnectAccept(from) => {
                let (a, b) = Self::pair_key(user, from);
                DbDelta::Connect { a, b }
            }
            ActivityEvent::AskQuestion(q) => {
                let discuss = || -> Option<DbDelta> {
                    let (session, paper) = match self.get_question(q).ok()?.target {
                        QaTarget::Presentation(p) => {
                            let pres = self.get_presentation(p).ok()?;
                            (pres.session, Some(pres.paper))
                        }
                        QaTarget::Session(s) => (s, None),
                    };
                    Some(DbDelta::Discuss { author: user, session, paper })
                };
                // A question naming no row (restore refuses those) adds
                // no edge.
                discuss().unwrap_or(DbDelta::Neutral)
            }
            ActivityEvent::UploadPresentation(_) | ActivityEvent::ReviseSlides(_) => {
                DbDelta::Structural
            }
            ActivityEvent::ViewPresentation(_)
            | ActivityEvent::AnswerQuestion(_)
            | ActivityEvent::Comment(_)
            | ActivityEvent::ConnectRequest(_)
            | ActivityEvent::ActivateWorkpad(_)
            | ActivityEvent::WorkpadAdd(_) => DbDelta::Neutral,
        }
    }

    /// The patchable graph events of the full activity log, in
    /// chronological order. Fresh knowledge-network builds replay exactly
    /// this sequence, so a cache patched with [`Self::deltas_since`]
    /// converges on the same row order and float accumulation order as a
    /// cold rebuild, bit for bit (node order is arithmetic and fixed by
    /// the entity counts).
    pub fn replay_deltas(&self) -> Vec<DbDelta> {
        self.log
            .iter()
            .map(|rec| self.delta_of(rec))
            .filter(|d| d.touches_graph() && !d.is_structural())
            .collect()
    }

    // ---- entity creation ---------------------------------------------

    /// Registers a user.
    pub fn add_user(&mut self, user: User) -> UserId {
        let id = UserId(self.users.len() as u32);
        self.users.push(user);
        self.bump(DbDelta::Structural);
        id
    }

    /// Adds a conference edition.
    pub fn add_conference(&mut self, conf: Conference) -> ConferenceId {
        let id = ConferenceId(self.conferences.len() as u32);
        self.conferences.push(conf);
        self.bump(DbDelta::Structural);
        id
    }

    /// Adds a session; the conference must exist and the chair (if any)
    /// must be a registered user.
    pub fn add_session(&mut self, session: Session) -> Result<SessionId> {
        self.get_conference(session.conference)?;
        if let Some(chair) = session.chair {
            self.get_user(chair)?;
        }
        let id = SessionId(self.sessions.len() as u32);
        self.sessions.push(session);
        self.indexes.on_session(id, &self.sessions[id.index()]);
        self.bump(DbDelta::Structural);
        Ok(id)
    }

    /// Adds a paper; authors, venue, and cited papers must exist.
    pub fn add_paper(&mut self, paper: Paper) -> Result<PaperId> {
        if paper.authors.is_empty() {
            return Err(HiveError::Invalid("paper needs at least one author".into()));
        }
        for &a in &paper.authors {
            self.get_user(a)?;
        }
        if let Some(v) = paper.venue {
            self.get_conference(v)?;
        }
        for &c in &paper.citations {
            self.get_paper(c)?;
        }
        let id = PaperId(self.papers.len() as u32);
        self.papers.push(paper);
        self.indexes.on_paper(id, &self.papers[id.index()]);
        self.bump(DbDelta::Structural);
        Ok(id)
    }

    /// Uploads a presentation; paper, presenter, and session must exist,
    /// and the presenter must be one of the paper's authors.
    pub fn add_presentation(&mut self, pres: Presentation) -> Result<PresentationId> {
        let paper = self.get_paper(pres.paper)?;
        if !paper.has_author(pres.presenter) {
            return Err(HiveError::Conflict(format!(
                "presenter {} is not an author of {}",
                pres.presenter, pres.paper
            )));
        }
        self.get_session(pres.session)?;
        let id = PresentationId(self.presentations.len() as u32);
        let presenter = pres.presenter;
        self.presentations.push(pres);
        self.indexes.on_presentation(id, &self.presentations[id.index()]);
        self.record(presenter, ActivityEvent::UploadPresentation(id));
        Ok(id)
    }

    // ---- getters -------------------------------------------------------

    getter!(get_user, users, UserId, User, "user");
    getter!(get_conference, conferences, ConferenceId, Conference, "conference");
    getter!(get_session, sessions, SessionId, Session, "session");
    getter!(get_paper, papers, PaperId, Paper, "paper");
    getter!(get_presentation, presentations, PresentationId, Presentation, "presentation");
    getter!(get_question, questions, QuestionId, Question, "question");
    getter!(get_answer, answers, AnswerId, Answer, "answer");
    getter!(get_comment, comments, CommentId, Comment, "comment");
    getter!(get_workpad, workpads, WorkpadId, Workpad, "workpad");
    getter!(get_collection, collections, CollectionId, Collection, "collection");
    getter!(get_tweet, tweets, TweetId, Tweet, "tweet");

    // ---- id listings ---------------------------------------------------

    /// All user ids.
    pub fn user_ids(&self) -> Vec<UserId> {
        (0..self.users.len() as u32).map(UserId).collect()
    }

    /// All conference ids.
    pub fn conference_ids(&self) -> Vec<ConferenceId> {
        (0..self.conferences.len() as u32).map(ConferenceId).collect()
    }

    /// All session ids.
    pub fn session_ids(&self) -> Vec<SessionId> {
        (0..self.sessions.len() as u32).map(SessionId).collect()
    }

    /// All paper ids.
    pub fn paper_ids(&self) -> Vec<PaperId> {
        (0..self.papers.len() as u32).map(PaperId).collect()
    }

    /// All presentation ids.
    pub fn presentation_ids(&self) -> Vec<PresentationId> {
        (0..self.presentations.len() as u32).map(PresentationId).collect()
    }

    /// All question ids.
    pub fn question_ids(&self) -> Vec<QuestionId> {
        (0..self.questions.len() as u32).map(QuestionId).collect()
    }

    // ---- index lookups --------------------------------------------------

    /// Sessions of a conference.
    pub fn sessions_of(&self, conf: ConferenceId) -> &[SessionId] {
        self.indexes.sessions_by_conf.get(&conf).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Papers authored by a user.
    pub fn papers_of(&self, user: UserId) -> &[PaperId] {
        self.indexes.papers_by_author.get(&user).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Papers published at a venue edition.
    pub fn papers_at(&self, conf: ConferenceId) -> &[PaperId] {
        self.indexes.papers_by_venue.get(&conf).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Presentations in a session.
    pub fn presentations_in(&self, s: SessionId) -> &[PresentationId] {
        self.indexes
            .presentations_by_session
            .get(&s)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Questions on a target.
    pub fn questions_on(&self, t: QaTarget) -> &[QuestionId] {
        self.indexes.questions_by_target.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Answers to a question.
    pub fn answers_to(&self, q: QuestionId) -> &[AnswerId] {
        self.indexes.answers_by_question.get(&q).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Comments on a target.
    pub fn comments_on(&self, t: QaTarget) -> &[CommentId] {
        self.indexes.comments_by_target.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Workpads of a user.
    pub fn workpads_of(&self, u: UserId) -> &[WorkpadId] {
        self.indexes.workpads_by_user.get(&u).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Tweets on a session hashtag.
    pub fn tweets_in(&self, s: SessionId) -> &[TweetId] {
        self.indexes.tweets_by_session.get(&s).map(Vec::as_slice).unwrap_or(&[])
    }

    // ---- conference participation ---------------------------------------

    /// Marks a user as attending a conference edition.
    pub fn attend(&mut self, user: UserId, conf: ConferenceId) -> Result<()> {
        self.get_user(user)?;
        self.get_conference(conf)?;
        if self.attendance.insert((user, conf)) {
            self.record(user, ActivityEvent::AttendConference(conf));
        }
        Ok(())
    }

    /// True if the user attends/attended the edition.
    pub fn attends(&self, user: UserId, conf: ConferenceId) -> bool {
        self.attendance.contains(&(user, conf))
    }

    /// Attendees of an edition.
    pub fn attendees(&self, conf: ConferenceId) -> Vec<UserId> {
        let mut out: Vec<UserId> = self
            .attendance
            .iter()
            .filter(|(_, c)| *c == conf)
            .map(|(u, _)| *u)
            .collect();
        out.sort();
        out
    }

    /// Conference editions a user attends/attended.
    pub fn conferences_of(&self, user: UserId) -> Vec<ConferenceId> {
        let mut out: Vec<ConferenceId> = self
            .attendance
            // lint:allow(determinism-taint) -- sorted before returning
            .iter()
            .filter(|(u, _)| *u == user)
            .map(|(_, c)| *c)
            .collect();
        out.sort();
        out
    }

    /// Checks a user into a session.
    pub fn check_in(&mut self, user: UserId, session: SessionId) -> Result<()> {
        self.get_user(user)?;
        self.get_session(session)?;
        let at = self.clock.now();
        let idx = self.checkins.len();
        self.checkins.push(CheckIn { user, session, at });
        self.indexes.on_checkin(idx, &self.checkins[idx]);
        self.record(user, ActivityEvent::CheckIn(session));
        Ok(())
    }

    /// Check-ins of a user, in order.
    pub fn checkins_of(&self, user: UserId) -> Vec<&CheckIn> {
        self.indexes
            .checkin_by_user
            .get(&user)
            .map(|v| v.iter().map(|&i| &self.checkins[i]).collect())
            .unwrap_or_default()
    }

    /// Check-ins into a session.
    pub fn checkins_in(&self, session: SessionId) -> Vec<&CheckIn> {
        self.indexes
            .checkin_by_session
            .get(&session)
            .map(|v| v.iter().map(|&i| &self.checkins[i]).collect())
            .unwrap_or_default()
    }

    // ---- follows and connections ----------------------------------------

    /// `follower` starts following `followee`.
    pub fn follow(&mut self, follower: UserId, followee: UserId) -> Result<()> {
        self.get_user(follower)?;
        self.get_user(followee)?;
        if follower == followee {
            return Err(HiveError::Invalid("cannot follow yourself".into()));
        }
        if self.is_following(follower, followee) {
            return Err(HiveError::Conflict("already following".into()));
        }
        let follow = Follow { follower, followee, since: self.clock.now() };
        self.follows.push(follow);
        self.indexes.on_follow(&follow);
        self.record(follower, ActivityEvent::Follow(followee));
        Ok(())
    }

    /// True if `a` follows `b`.
    pub fn is_following(&self, a: UserId, b: UserId) -> bool {
        self.indexes.follow_index.contains(&(a, b))
    }

    /// Restricts which activity categories of `followee` reach
    /// `follower`'s feed (must already be following). An empty list
    /// clears the filter (= everything again).
    pub fn set_follow_filter(
        &mut self,
        follower: UserId,
        followee: UserId,
        categories: Vec<String>,
    ) -> Result<()> {
        if !self.is_following(follower, followee) {
            return Err(HiveError::Precondition(format!(
                "{follower} does not follow {followee}"
            )));
        }
        if categories.is_empty() {
            self.follow_filters.remove(&(follower, followee));
        } else {
            self.follow_filters.insert((follower, followee), categories);
        }
        self.bump(DbDelta::Neutral);
        Ok(())
    }

    /// The follow filter for a pair, if any.
    pub fn follow_filter(&self, follower: UserId, followee: UserId) -> Option<&[String]> {
        self.follow_filters
            .get(&(follower, followee))
            .map(Vec::as_slice)
    }

    /// Users that `u` follows.
    pub fn following(&self, u: UserId) -> Vec<UserId> {
        let mut out: Vec<UserId> = self
            .indexes
            .follow_index
            // lint:allow(determinism-taint) -- sorted before returning
            .iter()
            .filter(|(a, _)| *a == u)
            .map(|(_, b)| *b)
            .collect();
        out.sort();
        out
    }

    /// Users following `u`.
    pub fn followers(&self, u: UserId) -> Vec<UserId> {
        let mut out: Vec<UserId> = self
            .indexes
            .follow_index
            .iter()
            .filter(|(_, b)| *b == u)
            .map(|(a, _)| *a)
            .collect();
        out.sort();
        out
    }

    fn pair_key(a: UserId, b: UserId) -> (UserId, UserId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Sends a connection request.
    pub fn request_connection(&mut self, from: UserId, to: UserId) -> Result<()> {
        self.get_user(from)?;
        self.get_user(to)?;
        if from == to {
            return Err(HiveError::Invalid("cannot connect to yourself".into()));
        }
        let key = Self::pair_key(from, to);
        if let Some(&idx) = self.indexes.connection_index.get(&key) {
            match self.connections[idx].state {
                ConnectionState::Declined => {
                    // A declined request may be retried.
                    self.connections[idx] = Connection {
                        from,
                        to,
                        state: ConnectionState::Pending,
                        requested_at: self.clock.now(),
                        resolved_at: None,
                    };
                    self.record(from, ActivityEvent::ConnectRequest(to));
                    return Ok(());
                }
                _ => return Err(HiveError::Conflict("connection already exists".into())),
            }
        }
        let idx = self.connections.len();
        self.connections.push(Connection {
            from,
            to,
            state: ConnectionState::Pending,
            requested_at: self.clock.now(),
            resolved_at: None,
        });
        self.indexes.on_connection(idx, &self.connections[idx]);
        self.record(from, ActivityEvent::ConnectRequest(to));
        Ok(())
    }

    /// The recipient accepts or declines a pending request.
    pub fn respond_connection(&mut self, to: UserId, from: UserId, accept: bool) -> Result<()> {
        let key = Self::pair_key(from, to);
        let idx = *self
            .indexes
            .connection_index
            .get(&key)
            .ok_or_else(|| HiveError::not_found("connection", format!("{from}-{to}")))?;
        let conn = &self.connections[idx];
        if conn.state != ConnectionState::Pending {
            return Err(HiveError::Conflict("connection not pending".into()));
        }
        if conn.to != to || conn.from != from {
            return Err(HiveError::Conflict("only the recipient can respond".into()));
        }
        let now = self.clock.now();
        let conn = &mut self.connections[idx];
        conn.state = if accept {
            ConnectionState::Accepted
        } else {
            ConnectionState::Declined
        };
        conn.resolved_at = Some(now);
        if accept {
            self.record(to, ActivityEvent::ConnectAccept(from));
        } else {
            // Declines don't log activity but still change state.
            self.bump(DbDelta::Neutral);
        }
        Ok(())
    }

    /// True if `a` and `b` have an accepted connection.
    pub fn are_connected(&self, a: UserId, b: UserId) -> bool {
        self.indexes
            .connection_index
            .get(&Self::pair_key(a, b))
            .map(|&i| self.connections[i].state == ConnectionState::Accepted)
            .unwrap_or(false)
    }

    /// Accepted connections of `u`.
    pub fn connections_of(&self, u: UserId) -> Vec<UserId> {
        let mut out: Vec<UserId> = self
            .connections
            .iter()
            .filter(|c| c.state == ConnectionState::Accepted && c.involves(u))
            .filter_map(|c| c.other(u))
            .collect();
        out.sort();
        out
    }

    /// Pending incoming requests for `u`.
    pub fn pending_requests_for(&self, u: UserId) -> Vec<UserId> {
        self.connections
            .iter()
            .filter(|c| c.state == ConnectionState::Pending && c.to == u)
            .map(|c| c.from)
            .collect()
    }

    // ---- Q&A, comments, tweets -------------------------------------------

    fn validate_target(&self, t: QaTarget) -> Result<SessionId> {
        match t {
            QaTarget::Presentation(p) => Ok(self.get_presentation(p)?.session),
            QaTarget::Session(s) => {
                self.get_session(s)?;
                Ok(s)
            }
        }
    }

    /// Posts a question; `broadcast` mirrors it to the session hashtag.
    pub fn ask_question(
        &mut self,
        author: UserId,
        target: QaTarget,
        text: impl Into<String>,
        broadcast: bool,
    ) -> Result<QuestionId> {
        self.get_user(author)?;
        let session = self.validate_target(target)?;
        let text = text.into();
        if text.trim().is_empty() {
            return Err(HiveError::Invalid("empty question".into()));
        }
        let id = QuestionId(self.questions.len() as u32);
        self.questions.push(Question {
            author,
            target,
            text: text.clone(),
            asked_at: self.clock.now(),
            broadcast,
        });
        self.indexes.on_question(id, &self.questions[id.index()]);
        self.record(author, ActivityEvent::AskQuestion(id));
        if broadcast {
            let handle = format!("@{}", self.get_user(author)?.name.to_lowercase().replace(' ', "_"));
            self.post_tweet(Some(author), handle, text, session)?;
        }
        Ok(id)
    }

    /// Answers a question.
    pub fn answer_question(
        &mut self,
        author: UserId,
        question: QuestionId,
        text: impl Into<String>,
    ) -> Result<AnswerId> {
        self.get_user(author)?;
        self.get_question(question)?;
        let text = text.into();
        if text.trim().is_empty() {
            return Err(HiveError::Invalid("empty answer".into()));
        }
        let id = AnswerId(self.answers.len() as u32);
        self.answers.push(Answer {
            question,
            author,
            text,
            answered_at: self.clock.now(),
        });
        self.indexes.on_answer(id, &self.answers[id.index()]);
        self.record(author, ActivityEvent::AnswerQuestion(id));
        Ok(id)
    }

    /// Posts a comment.
    pub fn comment(
        &mut self,
        author: UserId,
        target: QaTarget,
        text: impl Into<String>,
    ) -> Result<CommentId> {
        self.get_user(author)?;
        self.validate_target(target)?;
        let text = text.into();
        if text.trim().is_empty() {
            return Err(HiveError::Invalid("empty comment".into()));
        }
        let id = CommentId(self.comments.len() as u32);
        self.comments.push(Comment {
            author,
            target,
            text,
            commented_at: self.clock.now(),
        });
        self.indexes.on_comment(id, &self.comments[id.index()]);
        self.record(author, ActivityEvent::Comment(id));
        Ok(id)
    }

    /// Posts a tweet onto a session hashtag (platform or external user).
    pub fn post_tweet(
        &mut self,
        author: Option<UserId>,
        handle: impl Into<String>,
        text: impl Into<String>,
        session: SessionId,
    ) -> Result<TweetId> {
        self.get_session(session)?;
        let id = TweetId(self.tweets.len() as u32);
        self.tweets.push(Tweet {
            author,
            handle: handle.into(),
            text: text.into(),
            session,
            at: self.clock.now(),
        });
        self.indexes.on_tweet(id, &self.tweets[id.index()]);
        self.bump(DbDelta::Neutral);
        Ok(id)
    }

    // ---- browsing ---------------------------------------------------------

    /// Records a paper view.
    pub fn view_paper(&mut self, user: UserId, paper: PaperId) -> Result<()> {
        self.get_user(user)?;
        self.get_paper(paper)?;
        self.record(user, ActivityEvent::ViewPaper(paper));
        Ok(())
    }

    /// Records a presentation view.
    pub fn view_presentation(&mut self, user: UserId, pres: PresentationId) -> Result<()> {
        self.get_user(user)?;
        self.get_presentation(pres)?;
        self.record(user, ActivityEvent::ViewPresentation(pres));
        Ok(())
    }

    /// Revises a presentation's slides (presenter only).
    pub fn revise_slides(
        &mut self,
        user: UserId,
        pres: PresentationId,
        text: impl Into<String>,
    ) -> Result<()> {
        let p = self.get_presentation(pres)?;
        if p.presenter != user {
            return Err(HiveError::Conflict("only the presenter can revise slides".into()));
        }
        self.presentations[pres.index()].revise(text);
        self.record(user, ActivityEvent::ReviseSlides(pres));
        Ok(())
    }

    // ---- workpads ----------------------------------------------------------

    /// Creates a workpad and makes it active if the user has none.
    pub fn create_workpad(&mut self, owner: UserId, name: impl Into<String>) -> Result<WorkpadId> {
        self.get_user(owner)?;
        let id = WorkpadId(self.workpads.len() as u32);
        self.workpads.push(Workpad::new(owner, name));
        self.indexes.on_workpad(id, &self.workpads[id.index()]);
        self.bump(DbDelta::Neutral);
        if let std::collections::hash_map::Entry::Vacant(e) = self.active_workpad.entry(owner) {
            e.insert(id);
            self.record(owner, ActivityEvent::ActivateWorkpad(id));
        }
        Ok(id)
    }

    fn validate_item(&self, item: &WorkpadItem, pad: &Workpad) -> Result<()> {
        match *item {
            WorkpadItem::UserAvatar(u) => self.get_user(u).map(|_| ()),
            WorkpadItem::Paper(p) => self.get_paper(p).map(|_| ()),
            WorkpadItem::Presentation(p) => self.get_presentation(p).map(|_| ()),
            WorkpadItem::Session(s) => self.get_session(s).map(|_| ()),
            WorkpadItem::Question(q) => self.get_question(q).map(|_| ()),
            WorkpadItem::Collection(c) => self.get_collection(c).map(|_| ()),
            WorkpadItem::Note(n) => {
                if (n as usize) < pad.notes.len() {
                    Ok(())
                } else {
                    Err(HiveError::not_found("note", n))
                }
            }
        }
    }

    /// Drops an item onto a workpad (owner only, referenced entity must
    /// exist, duplicates rejected).
    pub fn workpad_add(&mut self, user: UserId, pad: WorkpadId, item: WorkpadItem) -> Result<()> {
        let p = self.get_workpad(pad)?;
        if p.owner != user {
            return Err(HiveError::Conflict("not your workpad".into()));
        }
        self.validate_item(&item, p)?;
        if p.contains(&item) {
            return Err(HiveError::Conflict("item already on workpad".into()));
        }
        self.workpads[pad.index()].add(item);
        self.record(user, ActivityEvent::WorkpadAdd(pad));
        Ok(())
    }

    /// Adds a free-form note to a workpad.
    pub fn workpad_note(
        &mut self,
        user: UserId,
        pad: WorkpadId,
        text: impl Into<String>,
    ) -> Result<WorkpadItem> {
        let p = self.get_workpad(pad)?;
        if p.owner != user {
            return Err(HiveError::Conflict("not your workpad".into()));
        }
        let item = self.workpads[pad.index()].add_note(text);
        self.record(user, ActivityEvent::WorkpadAdd(pad));
        Ok(item)
    }

    /// Removes an item from a workpad.
    pub fn workpad_remove(
        &mut self,
        user: UserId,
        pad: WorkpadId,
        item: &WorkpadItem,
    ) -> Result<()> {
        let p = self.get_workpad(pad)?;
        if p.owner != user {
            return Err(HiveError::Conflict("not your workpad".into()));
        }
        if !p.contains(item) {
            return Err(HiveError::not_found("workpad item", format!("{item:?}")));
        }
        self.workpads[pad.index()].remove(item);
        self.bump(DbDelta::Neutral);
        Ok(())
    }

    /// Switches the user's active workpad ("the user ... can choose from
    /// different saved workpads, each corresponding to a different
    /// context or state of mind").
    pub fn activate_workpad(&mut self, user: UserId, pad: WorkpadId) -> Result<()> {
        let p = self.get_workpad(pad)?;
        if p.owner != user {
            return Err(HiveError::Conflict("not your workpad".into()));
        }
        self.active_workpad.insert(user, pad);
        self.record(user, ActivityEvent::ActivateWorkpad(pad));
        Ok(())
    }

    /// The user's active workpad, if any.
    pub fn active_workpad_of(&self, user: UserId) -> Option<WorkpadId> {
        self.active_workpad.get(&user).copied()
    }

    /// Exports a workpad as an immutable shared collection.
    pub fn export_workpad(&mut self, user: UserId, pad: WorkpadId) -> Result<CollectionId> {
        let p = self.get_workpad(pad)?;
        if p.owner != user {
            return Err(HiveError::Conflict("not your workpad".into()));
        }
        let col = Collection::from_workpad(p);
        let id = CollectionId(self.collections.len() as u32);
        self.collections.push(col);
        self.bump(DbDelta::Neutral);
        Ok(id)
    }

    /// Registers an externally supplied collection (e.g. parsed from a
    /// JSON export) under a new id, after validating every item against
    /// this platform's entities.
    pub fn add_collection(&mut self, col: Collection) -> Result<CollectionId> {
        self.get_user(col.owner)?;
        // Reuse item validation with a scratch pad carrying the notes.
        let mut scratch = Workpad::new(col.owner, col.name.clone());
        scratch.notes = col.notes.clone();
        for item in &col.items {
            self.validate_item(item, &scratch)?;
        }
        let id = CollectionId(self.collections.len() as u32);
        self.collections.push(col);
        self.bump(DbDelta::Neutral);
        Ok(id)
    }

    /// Imports a collection as a fresh workpad of `user` and activates it.
    pub fn import_collection(&mut self, user: UserId, col: CollectionId) -> Result<WorkpadId> {
        self.get_user(user)?;
        let c = self.get_collection(col)?.clone();
        let id = WorkpadId(self.workpads.len() as u32);
        let mut pad = Workpad::new(user, c.name);
        pad.items = c.items;
        pad.notes = c.notes;
        self.workpads.push(pad);
        self.indexes.on_workpad(id, &self.workpads[id.index()]);
        self.active_workpad.insert(user, id);
        self.record(user, ActivityEvent::ActivateWorkpad(id));
        Ok(id)
    }

    // ---- persistence (see persist.rs for the public API) -----------------

    pub(crate) fn capture_snapshot(&self) -> crate::persist::PlatformSnapshot {
        let mut attendance: Vec<(UserId, ConferenceId)> =
            self.attendance.iter().copied().collect();
        attendance.sort();
        let mut active_workpads: Vec<(UserId, WorkpadId)> =
            self.active_workpad.iter().map(|(&u, &w)| (u, w)).collect();
        active_workpads.sort();
        let mut follow_filters: Vec<(UserId, UserId, Vec<String>)> = self
            .follow_filters
            .iter()
            .map(|(&(a, b), cats)| (a, b, cats.clone()))
            .collect();
        follow_filters.sort();
        crate::persist::PlatformSnapshot {
            version: crate::persist::SNAPSHOT_VERSION,
            now: self.clock.now(),
            users: self.users.to_vec(),
            conferences: self.conferences.to_vec(),
            sessions: self.sessions.to_vec(),
            papers: self.papers.to_vec(),
            presentations: self.presentations.to_vec(),
            questions: self.questions.to_vec(),
            answers: self.answers.to_vec(),
            comments: self.comments.to_vec(),
            workpads: self.workpads.to_vec(),
            collections: self.collections.to_vec(),
            tweets: self.tweets.to_vec(),
            follows: self.follows.to_vec(),
            follow_filters,
            connections: self.connections.to_vec(),
            checkins: self.checkins.to_vec(),
            attendance,
            active_workpads,
            log: self.log.clone(),
        }
    }

    pub(crate) fn restore_snapshot(
        snap: &crate::persist::PlatformSnapshot,
    ) -> Result<Self> {
        let mut db = HiveDb::default();
        db.clock.advance_to(snap.now);
        db.users = snap.users.clone().into();
        db.conferences = snap.conferences.clone().into();
        db.sessions = snap.sessions.clone().into();
        db.papers = snap.papers.clone().into();
        db.presentations = snap.presentations.clone().into();
        db.questions = snap.questions.clone().into();
        db.answers = snap.answers.clone().into();
        db.comments = snap.comments.clone().into();
        db.workpads = snap.workpads.clone().into();
        db.collections = snap.collections.clone().into();
        db.tweets = snap.tweets.clone().into();
        db.follows = snap.follows.clone().into();
        db.follow_filters = snap
            .follow_filters
            .iter()
            .map(|(a, b, cats)| ((*a, *b), cats.clone()))
            .collect();
        db.connections = snap.connections.clone().into();
        db.checkins = snap.checkins.clone().into();
        db.attendance = snap.attendance.iter().copied().collect();
        db.active_workpad = snap.active_workpads.iter().copied().collect();
        db.log = snap.log.clone();
        db.replay_indexes();
        db.check_references()?;
        db.check_clock_order()?;
        // The restored platform starts a fresh delta journal: caches
        // stamped against the pre-restore instance see `deltas_since`
        // return `None` and rebuild from the restored state.
        db.generation = 1;
        db.delta_base = 1;
        db.deltas.clear();
        Ok(db)
    }

    /// Re-stamps a restored platform at `generation` with an empty delta
    /// journal, as if it had lived through the same mutation history.
    ///
    /// Used by replication checkpoints: a follower installing a leader
    /// snapshot must adopt the leader's generation so the two journals
    /// stay aligned and subsequent log frames apply at matching
    /// generations. With `delta_base == generation`, `deltas_since` at
    /// the adopted generation answers an empty (patchable) slice.
    pub(crate) fn adopt_generation(&mut self, generation: u64) {
        self.generation = generation; // lint:allow(delta-log) -- checkpoint re-stamp, not a mutation
        self.delta_base = generation;
        self.deltas.clear();
    }

    /// Re-derives every secondary index from the primary state: the
    /// index is reset, then each row kind's hook runs over its arena in
    /// id order and the record hook over the log in order, exactly as
    /// the live appends called them. Restore runs it, so a snapshot can
    /// never freeze a stale index, and so does a cold
    /// [`crate::serve::Epoch::rebuild`].
    pub(crate) fn replay_indexes(&mut self) {
        let idx = &mut self.indexes;
        *idx = DbIndexes::default();
        for (i, session) in self.sessions.iter().enumerate() {
            idx.on_session(SessionId(i as u32), session);
        }
        for (i, paper) in self.papers.iter().enumerate() {
            idx.on_paper(PaperId(i as u32), paper);
        }
        for (i, pres) in self.presentations.iter().enumerate() {
            idx.on_presentation(PresentationId(i as u32), pres);
        }
        for (i, question) in self.questions.iter().enumerate() {
            idx.on_question(QuestionId(i as u32), question);
        }
        for (i, answer) in self.answers.iter().enumerate() {
            idx.on_answer(AnswerId(i as u32), answer);
        }
        for (i, comment) in self.comments.iter().enumerate() {
            idx.on_comment(CommentId(i as u32), comment);
        }
        for (i, pad) in self.workpads.iter().enumerate() {
            idx.on_workpad(WorkpadId(i as u32), pad);
        }
        for (i, tweet) in self.tweets.iter().enumerate() {
            idx.on_tweet(TweetId(i as u32), tweet);
        }
        for (pos, checkin) in self.checkins.iter().enumerate() {
            idx.on_checkin(pos, checkin);
        }
        for follow in &self.follows {
            idx.on_follow(follow);
        }
        for (pos, conn) in self.connections.iter().enumerate() {
            idx.on_connection(pos, conn);
        }
        for (pos, rec) in self.log.iter().enumerate() {
            idx.on_record(pos, rec);
        }
    }

    /// Refuses restored state that names a missing row: every id a live
    /// mutator checks before it appends a row (or records attendance,
    /// an active workpad or a follow filter), plus each log record's
    /// user and event target.
    fn check_references(&self) -> Result<()> {
        fn need(found: bool, what: &str) -> Result<()> {
            if found {
                Ok(())
            } else {
                Err(HiveError::Invalid(format!("dangling {what} in snapshot")))
            }
        }
        let user = |u: UserId| self.get_user(u).is_ok();
        let session = |s: SessionId| self.get_session(s).is_ok();
        let target = |t: QaTarget| self.validate_target(t).is_ok();
        for s in &self.sessions {
            need(self.get_conference(s.conference).is_ok() && s.chair.is_none_or(user), "session")?;
        }
        for p in &self.papers {
            let authors = !p.authors.is_empty() && p.authors.iter().all(|&a| user(a));
            let venue = p.venue.is_none_or(|v| self.get_conference(v).is_ok());
            let citations = p.citations.iter().all(|&c| self.get_paper(c).is_ok());
            need(authors && venue && citations, "paper")?;
        }
        for p in &self.presentations {
            let paper = self.get_paper(p.paper).is_ok_and(|x| x.has_author(p.presenter));
            need(paper && session(p.session), "presentation")?;
        }
        for q in &self.questions {
            need(user(q.author) && target(q.target), "question")?;
        }
        for a in &self.answers {
            need(user(a.author) && self.get_question(a.question).is_ok(), "answer")?;
        }
        for c in &self.comments {
            need(user(c.author) && target(c.target), "comment")?;
        }
        for pad in &self.workpads {
            need(user(pad.owner), "workpad")?;
        }
        for t in &self.tweets {
            need(session(t.session), "tweet")?;
        }
        for c in &self.checkins {
            need(user(c.user) && session(c.session), "check-in")?;
        }
        for f in &self.follows {
            need(user(f.follower) && user(f.followee), "follow")?;
        }
        for c in &self.connections {
            need(user(c.from) && user(c.to), "connection")?;
        }
        for &(u, c) in &self.attendance {
            need(user(u) && self.get_conference(c).is_ok(), "attendance")?;
        }
        for (&u, &pad) in &self.active_workpad {
            need(self.get_workpad(pad).is_ok_and(|p| p.owner == u), "active workpad")?;
        }
        for &(a, b) in self.follow_filters.keys() {
            need(self.is_following(a, b), "follow filter")?;
        }
        for rec in &self.log {
            need(user(rec.user) && self.event_target_exists(&rec.event), "log record")?;
        }
        Ok(())
    }

    /// Refuses a restored log, or check-in, tweet, question or answer
    /// arena, whose time ever decreases, or a clock behind the last
    /// record. Live writes stamp each row with the current time and the
    /// clock never runs back, and [`index::ActivityQuery::run`] and the
    /// `*_within` reads clip the log and the arenas by binary search on
    /// time, so either edit would make windowed queries answer
    /// differently from the scan.
    fn check_clock_order(&self) -> Result<()> {
        if self.log.windows(2).any(|w| w[1].at < w[0].at) {
            return Err(HiveError::Invalid("activity log out of clock order in snapshot".into()));
        }
        fn ordered<T>(rows: &ChunkVec<T>, at: impl Fn(&T) -> Timestamp) -> bool {
            let mut times = rows.iter().map(at);
            let first = times.next();
            times.try_fold(first, |prev, t| (prev <= Some(t)).then_some(Some(t))).is_some()
        }
        let arenas = [
            ("check-ins", ordered(&self.checkins, |c| c.at)),
            ("tweets", ordered(&self.tweets, |t| t.at)),
            ("questions", ordered(&self.questions, |q| q.asked_at)),
            ("answers", ordered(&self.answers, |a| a.answered_at)),
        ];
        if let Some((arena, _)) = arenas.iter().find(|(_, ok)| !ok) {
            return Err(HiveError::Invalid(format!("{arena} out of clock order in snapshot")));
        }
        if self.log.last().is_some_and(|r| self.clock.now() < r.at) {
            return Err(HiveError::Invalid("clock behind the activity log in snapshot".into()));
        }
        Ok(())
    }

    /// Whether the row an activity event names exists.
    fn event_target_exists(&self, event: &ActivityEvent) -> bool {
        match *event {
            ActivityEvent::AttendConference(c) => self.get_conference(c).is_ok(),
            ActivityEvent::CheckIn(s) => self.get_session(s).is_ok(),
            ActivityEvent::UploadPresentation(p)
            | ActivityEvent::ReviseSlides(p)
            | ActivityEvent::ViewPresentation(p) => self.get_presentation(p).is_ok(),
            ActivityEvent::ViewPaper(p) => self.get_paper(p).is_ok(),
            ActivityEvent::AskQuestion(q) => self.get_question(q).is_ok(),
            ActivityEvent::AnswerQuestion(a) => self.get_answer(a).is_ok(),
            ActivityEvent::Comment(c) => self.get_comment(c).is_ok(),
            ActivityEvent::Follow(u)
            | ActivityEvent::ConnectRequest(u)
            | ActivityEvent::ConnectAccept(u) => self.get_user(u).is_ok(),
            ActivityEvent::ActivateWorkpad(w) | ActivityEvent::WorkpadAdd(w) => {
                self.get_workpad(w).is_ok()
            }
        }
    }

    /// Test-support hook: deliberately corrupts the secondary indexes
    /// without touching the primary arenas, the log, the clock, or the
    /// generation counter. Snapshots store only primary data, so a
    /// corrupted index must never survive a dump/reload cycle — the
    /// persist tests use this to exercise the "index bug can't be
    /// frozen" invariant documented in `persist.rs`.
    #[doc(hidden)]
    pub fn debug_scramble_indexes(&mut self) {
        self.indexes = DbIndexes::default();
        // Plant wrong entries so "cleared" is not mistaken for "absent".
        if self.users.len() >= 2 {
            let since = self.clock.now();
            self.indexes.on_follow(&Follow { follower: UserId(0), followee: UserId(1), since });
            self.indexes.on_paper(PaperId(u32::MAX), &Paper::new("", vec![UserId(0)]));
        }
    }

    /// Every secondary index, current at this generation.
    pub fn indexes(&self) -> &DbIndexes {
        &self.indexes
    }

    // ---- activity log -------------------------------------------------------

    /// Full activity log, in order.
    pub fn activity_log(&self) -> &[ActivityRecord] {
        &self.log
    }

    /// A user's activity records, in order.
    pub fn activities_of(&self, user: UserId) -> Vec<&ActivityRecord> {
        self.indexes
            .actor_postings(user)
            .iter()
            .map(|&pos| &self.log[pos as usize])
            .collect()
    }

    /// Check-ins stamped in `[from, to)`, in order.
    pub(crate) fn checkins_within(
        &self,
        from: Timestamp,
        to: Timestamp,
    ) -> impl Iterator<Item = &CheckIn> {
        self.checkins.window(from, to, |c| c.at).filter_map(|i| self.checkins.get(i))
    }

    /// Tweets posted in `[from, to)`, in order.
    pub(crate) fn tweets_within(&self, from: Timestamp, to: Timestamp) -> impl Iterator<Item = &Tweet> {
        self.tweets.window(from, to, |t| t.at).filter_map(|i| self.tweets.get(i))
    }

    /// Questions asked in `[from, to)`, in id order.
    pub(crate) fn questions_within(
        &self,
        from: Timestamp,
        to: Timestamp,
    ) -> impl Iterator<Item = (QuestionId, &Question)> {
        let rows = self.questions.window(from, to, |q| q.asked_at);
        rows.filter_map(|i| Some((QuestionId(i as u32), self.questions.get(i)?)))
    }

    /// Answers given in `[from, to)`, in id order.
    pub(crate) fn answers_within(
        &self,
        from: Timestamp,
        to: Timestamp,
    ) -> impl Iterator<Item = (AnswerId, &Answer)> {
        let rows = self.answers.window(from, to, |a| a.answered_at);
        rows.filter_map(|i| Some((AnswerId(i as u32), self.answers.get(i)?)))
    }

    /// Activity records in a time window `[from, to)`.
    pub fn activities_between(&self, from: Timestamp, to: Timestamp) -> Vec<&ActivityRecord> {
        self.log
            .iter()
            .filter(|r| r.at >= from && r.at < to)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny conference world: 3 users, 1 conference, 2 sessions,
    /// 2 papers, 1 presentation.
    pub(crate) fn tiny_world() -> (HiveDb, Vec<UserId>, ConferenceId, Vec<SessionId>, Vec<PaperId>, PresentationId)
    {
        let mut db = HiveDb::new();
        let users = vec![
            db.add_user(User::new("Zach", "ASU").with_interests(vec!["tensor streams".into()])),
            db.add_user(User::new("Ann", "UniTo").with_interests(vec!["community detection".into()])),
            db.add_user(User::new("Aaron", "NEC").with_interests(vec!["graph processing".into()])),
        ];
        let conf = db.add_conference(Conference::new("EDBT", 2013, "Genoa"));
        let sessions = vec![
            db.add_session(
                Session::new(conf, "Graph Processing", "R1")
                    .with_topics(vec!["large scale graphs".into()]),
            )
            .unwrap(),
            db.add_session(
                Session::new(conf, "Social Media", "R2")
                    .with_topics(vec!["tensor streams".into()]),
            )
            .unwrap(),
        ];
        let p0 = db
            .add_paper(
                Paper::new("Tensor monitoring", vec![users[0]])
                    .with_abstract("compressed sensing of tensor streams")
                    .at_venue(conf),
            )
            .unwrap();
        let p1 = db
            .add_paper(
                Paper::new("Community tracking", vec![users[1], users[2]])
                    .with_abstract("tracking communities in graphs")
                    .at_venue(conf)
                    .citing(vec![p0]),
            )
            .unwrap();
        let pres = db
            .add_presentation(
                Presentation::new(p0, users[0], sessions[1]).with_slides("slide one two"),
            )
            .unwrap();
        (db, users, conf, sessions, vec![p0, p1], pres)
    }

    #[test]
    fn referential_integrity_enforced() {
        let mut db = HiveDb::new();
        assert!(db
            .add_session(Session::new(ConferenceId(0), "x", "t"))
            .is_err());
        let u = db.add_user(User::new("A", "X"));
        assert!(db.add_paper(Paper::new("p", vec![])).is_err());
        assert!(db.add_paper(Paper::new("p", vec![UserId(99)])).is_err());
        let p = db.add_paper(Paper::new("p", vec![u])).unwrap();
        // Presenter must be an author.
        let c = db.add_conference(Conference::new("C", 2013, "X"));
        let s = db.add_session(Session::new(c, "s", "t")).unwrap();
        let other = db.add_user(User::new("B", "Y"));
        assert!(db.add_presentation(Presentation::new(p, other, s)).is_err());
        assert!(db.add_presentation(Presentation::new(p, u, s)).is_ok());
    }

    #[test]
    fn citation_indexes() {
        let (db, _, conf, _, papers, _) = tiny_world();
        assert_eq!(db.papers_at(conf).len(), 2);
        assert_eq!(db.get_paper(papers[1]).unwrap().citations, vec![papers[0]]);
    }

    #[test]
    fn follows_and_connections() {
        let (mut db, users, ..) = tiny_world();
        db.follow(users[0], users[1]).unwrap();
        assert!(db.is_following(users[0], users[1]));
        assert!(!db.is_following(users[1], users[0]));
        assert_eq!(db.follow(users[0], users[1]).unwrap_err(), HiveError::Conflict("already following".into()));
        assert!(db.follow(users[0], users[0]).is_err());
        assert_eq!(db.followers(users[1]), vec![users[0]]);

        db.request_connection(users[0], users[2]).unwrap();
        assert!(!db.are_connected(users[0], users[2]));
        assert_eq!(db.pending_requests_for(users[2]), vec![users[0]]);
        // Duplicate request blocked.
        assert!(db.request_connection(users[0], users[2]).is_err());
        assert!(db.request_connection(users[2], users[0]).is_err());
        db.respond_connection(users[2], users[0], true).unwrap();
        assert!(db.are_connected(users[0], users[2]));
        assert!(db.are_connected(users[2], users[0]));
        assert_eq!(db.connections_of(users[0]), vec![users[2]]);
        // Can't respond twice.
        assert!(db.respond_connection(users[2], users[0], true).is_err());
    }

    #[test]
    fn declined_connection_can_be_retried() {
        let (mut db, users, ..) = tiny_world();
        db.request_connection(users[0], users[1]).unwrap();
        db.respond_connection(users[1], users[0], false).unwrap();
        assert!(!db.are_connected(users[0], users[1]));
        // Either side may retry after a decline.
        db.request_connection(users[1], users[0]).unwrap();
        db.respond_connection(users[0], users[1], true).unwrap();
        assert!(db.are_connected(users[0], users[1]));
    }

    #[test]
    fn only_recipient_responds() {
        let (mut db, users, ..) = tiny_world();
        db.request_connection(users[0], users[1]).unwrap();
        assert!(db.respond_connection(users[0], users[1], true).is_err());
    }

    #[test]
    fn checkins_indexed_both_ways() {
        let (mut db, users, _, sessions, ..) = tiny_world();
        db.advance_clock(10);
        db.check_in(users[0], sessions[0]).unwrap();
        db.check_in(users[1], sessions[0]).unwrap();
        db.check_in(users[0], sessions[1]).unwrap();
        assert_eq!(db.checkins_of(users[0]).len(), 2);
        assert_eq!(db.checkins_in(sessions[0]).len(), 2);
        assert_eq!(db.checkins_of(users[0])[0].at, Timestamp(10));
    }

    #[test]
    fn questions_answers_and_broadcast() {
        let (mut db, users, _, sessions, _, pres) = tiny_world();
        let q = db
            .ask_question(
                users[1],
                QaTarget::Presentation(pres),
                "is the equation on slide 3 right?",
                true,
            )
            .unwrap();
        assert_eq!(db.questions_on(QaTarget::Presentation(pres)), &[q]);
        // Broadcast created a tweet on the presentation's session hashtag.
        assert_eq!(db.tweets_in(sessions[1]).len(), 1);
        let a = db.answer_question(users[0], q, "good catch — fixed").unwrap();
        assert_eq!(db.answers_to(q), &[a]);
        assert!(db.ask_question(users[1], QaTarget::Presentation(pres), "  ", false).is_err());
        // Question on a bare session (keynote traffic).
        let q2 = db
            .ask_question(users[2], QaTarget::Session(sessions[0]), "what about scale?", false)
            .unwrap();
        assert_eq!(db.questions_on(QaTarget::Session(sessions[0])), &[q2]);
        assert_eq!(db.tweets_in(sessions[0]).len(), 0, "no broadcast requested");
    }

    #[test]
    fn slide_revision_rules() {
        let (mut db, users, _, _, _, pres) = tiny_world();
        assert!(db.revise_slides(users[1], pres, "hijack").is_err());
        db.revise_slides(users[0], pres, "slide one two three").unwrap();
        assert_eq!(db.get_presentation(pres).unwrap().revision, 1);
    }

    #[test]
    fn workpad_lifecycle() {
        let (mut db, users, _, sessions, papers, _) = tiny_world();
        let pad = db.create_workpad(users[0], "session").unwrap();
        // First pad auto-activates.
        assert_eq!(db.active_workpad_of(users[0]), Some(pad));
        db.workpad_add(users[0], pad, WorkpadItem::Session(sessions[0])).unwrap();
        db.workpad_add(users[0], pad, WorkpadItem::Paper(papers[1])).unwrap();
        // Duplicate rejected.
        assert!(db.workpad_add(users[0], pad, WorkpadItem::Paper(papers[1])).is_err());
        // Foreign pad rejected.
        assert!(db.workpad_add(users[1], pad, WorkpadItem::Paper(papers[0])).is_err());
        // Dangling item rejected.
        assert!(db
            .workpad_add(users[0], pad, WorkpadItem::Paper(PaperId(99)))
            .is_err());
        let note = db.workpad_note(users[0], pad, "look into INI").unwrap();
        assert_eq!(db.get_workpad(pad).unwrap().len(), 3);
        db.workpad_remove(users[0], pad, &note).unwrap();
        assert_eq!(db.get_workpad(pad).unwrap().len(), 2);

        let pad2 = db.create_workpad(users[0], "to investigate later").unwrap();
        assert_eq!(db.active_workpad_of(users[0]), Some(pad), "second pad not auto-active");
        db.activate_workpad(users[0], pad2).unwrap();
        assert_eq!(db.active_workpad_of(users[0]), Some(pad2));
        assert_eq!(db.workpads_of(users[0]).len(), 2);
    }

    #[test]
    fn export_import_collections() {
        let (mut db, users, _, sessions, ..) = tiny_world();
        let pad = db.create_workpad(users[0], "graphs").unwrap();
        db.workpad_add(users[0], pad, WorkpadItem::Session(sessions[0])).unwrap();
        let col = db.export_workpad(users[0], pad).unwrap();
        // Someone else imports it; it becomes their active pad.
        let imported = db.import_collection(users[1], col).unwrap();
        assert_eq!(db.active_workpad_of(users[1]), Some(imported));
        let got = db.get_workpad(imported).unwrap();
        assert_eq!(got.owner, users[1]);
        assert_eq!(got.items, vec![WorkpadItem::Session(sessions[0])]);
        // Export is frozen: later edits to the source don't leak.
        db.workpad_note(users[0], pad, "new note").unwrap();
        assert_eq!(db.get_collection(col).unwrap().items.len(), 1);
    }

    #[test]
    fn getters_report_not_found() {
        let db = HiveDb::new();
        assert!(db.get_user(UserId(0)).is_err());
        assert!(db.get_conference(ConferenceId(5)).is_err());
        assert!(db.get_session(SessionId(1)).is_err());
        assert!(db.get_paper(PaperId(9)).is_err());
        assert!(db.get_presentation(PresentationId(0)).is_err());
        assert!(db.get_question(QuestionId(0)).is_err());
        assert!(db.get_workpad(WorkpadId(0)).is_err());
        assert!(db.get_collection(CollectionId(0)).is_err());
        assert!(db.get_tweet(TweetId(0)).is_err());
    }

    #[test]
    fn actions_on_dangling_entities_fail_cleanly() {
        let (mut db, users, _, sessions, papers, pres) = {
            let t = tiny_world();
            (t.0, t.1, t.2, t.3, t.4, t.5)
        };
        // Unknown actors/targets.
        assert!(db.check_in(UserId(99), sessions[0]).is_err());
        assert!(db.check_in(users[0], SessionId(99)).is_err());
        assert!(db
            .ask_question(users[0], QaTarget::Presentation(PresentationId(99)), "x", false)
            .is_err());
        assert!(db.answer_question(users[0], QuestionId(99), "x").is_err());
        assert!(db.view_paper(users[0], PaperId(99)).is_err());
        assert!(db.view_paper(UserId(99), papers[0]).is_err());
        assert!(db.view_presentation(users[0], PresentationId(99)).is_err());
        assert!(db.follow(UserId(99), users[0]).is_err());
        assert!(db.request_connection(users[0], UserId(99)).is_err());
        assert!(db.create_workpad(UserId(99), "x").is_err());
        assert!(db.export_workpad(users[0], WorkpadId(99)).is_err());
        assert!(db.import_collection(users[0], CollectionId(99)).is_err());
        // Comments validate their target too.
        assert!(db
            .comment(users[0], QaTarget::Session(SessionId(99)), "x")
            .is_err());
        assert!(db.comment(users[0], QaTarget::Presentation(pres), "  ").is_err());
        // Nothing above left a log record beyond the fixture's own.
        let log_len = db.activity_log().len();
        let fresh = tiny_world().0.activity_log().len();
        assert_eq!(log_len, fresh, "failed operations never log activity");
    }

    #[test]
    fn delta_journal_mirrors_every_generation_bump() {
        let (mut db, users, conf, sessions, papers, pres) = tiny_world();
        let g0 = db.generation();
        assert_eq!(db.deltas_since(g0), Some(&[][..]));
        // Every tiny_world mutation was journaled from generation 0.
        assert_eq!(db.deltas_since(0).unwrap().len() as u64, g0);
        let log0 = db.activity_log().len();
        db.follow(users[0], users[1]).unwrap();
        db.attend(users[2], conf).unwrap();
        db.check_in(users[0], sessions[0]).unwrap();
        db.view_paper(users[1], papers[0]).unwrap();
        let q = db.ask_question(users[1], QaTarget::Presentation(pres), "why?", false).unwrap();
        db.ask_question(users[2], QaTarget::Session(sessions[0]), "scale?", false).unwrap();
        db.request_connection(users[0], users[2]).unwrap();
        db.respond_connection(users[2], users[0], true).unwrap();
        let pres2 = db.add_presentation(Presentation::new(papers[1], users[1], sessions[0])).unwrap();
        db.revise_slides(users[1], pres2, "new slides").unwrap();
        db.view_presentation(users[2], pres).unwrap();
        db.answer_question(users[0], q, "because").unwrap();
        db.comment(users[2], QaTarget::Session(sessions[1]), "nice").unwrap();
        let pad = db.create_workpad(users[0], "pad").unwrap();
        db.workpad_add(users[0], pad, WorkpadItem::Paper(papers[1])).unwrap();
        db.activate_workpad(users[0], pad).unwrap();
        // One logged mutator per event kind: all 14 are covered.
        let kinds: HashSet<_> =
            db.activity_log()[log0..].iter().map(|r| std::mem::discriminant(&r.event)).collect();
        assert_eq!(kinds.len(), 14);
        let suffix = db.deltas_since(g0).unwrap().to_vec();
        assert_eq!(
            suffix,
            vec![
                DbDelta::Follow { follower: users[0], followee: users[1] },
                DbDelta::Attend { user: users[2], conf },
                DbDelta::CheckIn { user: users[0], session: sessions[0] },
                DbDelta::ViewPaper { user: users[1], paper: papers[0] },
                DbDelta::Discuss {
                    author: users[1],
                    session: sessions[1],
                    paper: Some(papers[0])
                },
                DbDelta::Discuss { author: users[2], session: sessions[0], paper: None },
                DbDelta::Neutral, // connection request
                DbDelta::Connect { a: users[0], b: users[2] },
                DbDelta::Structural, // presentation upload
                DbDelta::Structural, // slide revision
                DbDelta::Neutral,    // presentation view
                DbDelta::Neutral,    // answer
                DbDelta::Neutral,    // comment
                DbDelta::Neutral,    // workpad creation (unlogged bump)
                DbDelta::Neutral,    // its first activation
                DbDelta::Neutral,    // workpad add
                DbDelta::Neutral,    // workpad activation
            ]
        );
        // Duplicate attendance neither bumps nor journals.
        let g1 = db.generation();
        db.attend(users[2], conf).unwrap();
        assert_eq!(db.generation(), g1);
        // A future generation is unanswerable.
        assert_eq!(db.deltas_since(g1 + 1), None);
        // The replay view of the log is the journal's patchable entries.
        let patchable: Vec<DbDelta> = db
            .deltas_since(0)
            .unwrap()
            .iter()
            .copied()
            .filter(|d| !matches!(d, DbDelta::Neutral | DbDelta::Structural))
            .collect();
        assert_eq!(db.replay_deltas(), patchable);
    }

    #[test]
    fn delta_journal_compacts_past_the_cap() {
        let (mut db, users, _, sessions, ..) = tiny_world();
        let g0 = db.generation();
        for _ in 0..(DB_DELTA_LOG_CAP + 10) {
            db.check_in(users[0], sessions[0]).unwrap();
        }
        assert_eq!(db.deltas_since(g0), None, "window compacted away");
        let recent = db.deltas_since(db.generation() - 5).unwrap();
        assert_eq!(recent.len(), 5);
        assert!(recent
            .iter()
            .all(|d| *d == DbDelta::CheckIn { user: users[0], session: sessions[0] }));
        // Past several compactions the window is exactly the last CAP deltas.
        for _ in 0..(3 * DB_DELTA_LOG_CAP) {
            db.check_in(users[0], sessions[0]).unwrap();
        }
        let oldest = db.generation() - DB_DELTA_LOG_CAP as u64;
        assert_eq!(db.deltas_since(oldest).map(<[DbDelta]>::len), Some(DB_DELTA_LOG_CAP));
        assert_eq!(db.deltas_since(oldest - 1), None, "one past the window must refuse");
    }

    #[test]
    fn restored_platform_starts_a_fresh_journal() {
        let (db, users, ..) = tiny_world();
        let snap = db.capture_snapshot();
        let restored = HiveDb::restore_snapshot(&snap).unwrap();
        assert_eq!(restored.generation(), 1);
        assert_eq!(restored.deltas_since(1), Some(&[][..]));
        assert_eq!(restored.deltas_since(0), None, "pre-restore stamps rebuild");
        // Replay still sees the persisted activity log.
        assert_eq!(restored.replay_deltas(), db.replay_deltas());
        let _ = users;
    }

    #[test]
    fn activity_log_records_everything() {
        let (mut db, users, conf, sessions, papers, _) = tiny_world();
        let before = db.activity_log().len(); // presentation upload
        db.attend(users[0], conf).unwrap();
        db.check_in(users[0], sessions[0]).unwrap();
        db.view_paper(users[1], papers[0]).unwrap();
        assert_eq!(db.activity_log().len(), before + 3);
        assert_eq!(db.activities_of(users[1]).len(), 1);
        let from = Timestamp(0);
        let to = Timestamp(u64::MAX);
        assert_eq!(db.activities_between(from, to).len(), before + 3);
        // Duplicate attendance not double-logged.
        db.attend(users[0], conf).unwrap();
        assert_eq!(db.activity_log().len(), before + 3);
        assert!(db.attends(users[0], conf));
        assert_eq!(db.attendees(conf), vec![users[0]]);
        assert_eq!(db.conferences_of(users[0]), vec![conf]);
    }
}
