//! Platform persistence: full-fidelity JSON snapshots of a [`HiveDb`].
//!
//! Hive is cross-conference ("same conference, different years" is a
//! relationship evidence), so a deployment's state must survive between
//! editions. The snapshot stores only primary data — entities, social
//! state, the activity log, the clock — and every secondary index is
//! rebuilt on load by replaying the same per-row index hooks the live
//! mutators call, so an index bug can't be frozen into a snapshot. A
//! load refuses a snapshot that names a missing row, or whose log is
//! out of clock order or later than its clock ([`HiveError::Invalid`]).

use crate::clock::Timestamp;
use crate::db::{DbDelta, HiveDb};
use crate::error::{HiveError, Result};
use crate::ids::*;
use crate::model::*;
use hive_json::{FromJson, Json, JsonError, ToJson};

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Serializable form of the whole platform.
#[derive(Clone, Debug)]
pub struct PlatformSnapshot {
    /// Format version.
    pub version: u32,
    /// Logical clock value at capture time.
    pub now: Timestamp,
    /// Users in id order.
    pub users: Vec<User>,
    /// Conferences in id order.
    pub conferences: Vec<Conference>,
    /// Sessions in id order.
    pub sessions: Vec<Session>,
    /// Papers in id order.
    pub papers: Vec<Paper>,
    /// Presentations in id order.
    pub presentations: Vec<Presentation>,
    /// Questions in id order.
    pub questions: Vec<Question>,
    /// Answers in id order.
    pub answers: Vec<Answer>,
    /// Comments in id order.
    pub comments: Vec<Comment>,
    /// Workpads in id order.
    pub workpads: Vec<Workpad>,
    /// Collections in id order.
    pub collections: Vec<Collection>,
    /// Tweets in id order.
    pub tweets: Vec<Tweet>,
    /// Follow edges with timestamps.
    pub follows: Vec<Follow>,
    /// Per-follow category filters.
    pub follow_filters: Vec<(UserId, UserId, Vec<String>)>,
    /// Connections (any state).
    pub connections: Vec<Connection>,
    /// Session check-ins.
    pub checkins: Vec<CheckIn>,
    /// Conference attendance pairs.
    pub attendance: Vec<(UserId, ConferenceId)>,
    /// Active workpad per user.
    pub active_workpads: Vec<(UserId, WorkpadId)>,
    /// The append-only activity log.
    pub log: Vec<ActivityRecord>,
}

hive_json::impl_json_struct!(PlatformSnapshot {
    version,
    now,
    users,
    conferences,
    sessions,
    papers,
    presentations,
    questions,
    answers,
    comments,
    workpads,
    collections,
    tweets,
    follows,
    follow_filters,
    connections,
    checkins,
    attendance,
    active_workpads,
    log,
});

/// A replication checkpoint: a full platform snapshot plus the
/// mutation generation it was captured at.
///
/// Unlike a plain [`PlatformSnapshot`] restore (which starts a fresh
/// delta journal at generation 1), installing a checkpoint re-stamps
/// the restored platform at the captured generation, so a follower
/// bootstrapped from it can apply subsequent log frames at the exact
/// generations the leader journaled them.
#[derive(Clone, Debug)]
pub struct ReplicaCheckpoint {
    /// Snapshot format version (same lineage as [`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The mutation generation at capture time.
    pub generation: u64,
    /// The full primary-data snapshot.
    pub snapshot: PlatformSnapshot,
}

hive_json::impl_json_struct!(ReplicaCheckpoint { version, generation, snapshot });

// `DbDelta` crosses the replication wire inside log frames (the
// classified delta stream a follower cross-checks its own journal
// against), so it needs a stable JSON form: unit variants render as
// their name, payload variants as a single-key object. Both matches
// stay exhaustive on purpose (lint R10): a new variant must pick its
// wire form here.
impl ToJson for DbDelta {
    fn to_json(&self) -> Json {
        fn obj(tag: &str, fields: Vec<(String, Json)>) -> Json {
            Json::Obj(vec![(tag.to_string(), Json::Obj(fields))])
        }
        match self {
            DbDelta::Neutral => Json::Str("Neutral".into()),
            DbDelta::Structural => Json::Str("Structural".into()),
            DbDelta::Follow { follower, followee } => obj(
                "Follow",
                vec![
                    ("follower".into(), follower.to_json()),
                    ("followee".into(), followee.to_json()),
                ],
            ),
            DbDelta::Connect { a, b } => {
                obj("Connect", vec![("a".into(), a.to_json()), ("b".into(), b.to_json())])
            }
            DbDelta::CheckIn { user, session } => obj(
                "CheckIn",
                vec![("user".into(), user.to_json()), ("session".into(), session.to_json())],
            ),
            DbDelta::Attend { user, conf } => obj(
                "Attend",
                vec![("user".into(), user.to_json()), ("conf".into(), conf.to_json())],
            ),
            DbDelta::Discuss { author, session, paper } => obj(
                "Discuss",
                vec![
                    ("author".into(), author.to_json()),
                    ("session".into(), session.to_json()),
                    ("paper".into(), paper.to_json()),
                ],
            ),
            DbDelta::ViewPaper { user, paper } => obj(
                "ViewPaper",
                vec![("user".into(), user.to_json()), ("paper".into(), paper.to_json())],
            ),
        }
    }
}

impl FromJson for DbDelta {
    fn from_json(v: &Json) -> std::result::Result<Self, JsonError> {
        fn field<'a>(
            pairs: &'a [(String, Json)],
            name: &str,
        ) -> std::result::Result<&'a Json, JsonError> {
            pairs
                .iter()
                .find_map(|(k, v)| (k == name).then_some(v))
                .ok_or_else(|| JsonError::new(format!("DbDelta missing field `{name}`")))
        }
        match v {
            Json::Str(tag) => match tag.as_str() {
                "Neutral" => Ok(DbDelta::Neutral),
                "Structural" => Ok(DbDelta::Structural),
                other => Err(JsonError::new(format!("unknown DbDelta variant `{other}`"))),
            },
            Json::Obj(pairs) if pairs.len() == 1 => {
                let (tag, inner) = &pairs[0];
                let Json::Obj(fields) = inner else {
                    return Err(JsonError::new(format!(
                        "DbDelta::{tag} payload must be an object, got {}",
                        inner.kind()
                    )));
                };
                match tag.as_str() {
                    "Follow" => Ok(DbDelta::Follow {
                        follower: FromJson::from_json(field(fields, "follower")?)?,
                        followee: FromJson::from_json(field(fields, "followee")?)?,
                    }),
                    "Connect" => Ok(DbDelta::Connect {
                        a: FromJson::from_json(field(fields, "a")?)?,
                        b: FromJson::from_json(field(fields, "b")?)?,
                    }),
                    "CheckIn" => Ok(DbDelta::CheckIn {
                        user: FromJson::from_json(field(fields, "user")?)?,
                        session: FromJson::from_json(field(fields, "session")?)?,
                    }),
                    "Attend" => Ok(DbDelta::Attend {
                        user: FromJson::from_json(field(fields, "user")?)?,
                        conf: FromJson::from_json(field(fields, "conf")?)?,
                    }),
                    "Discuss" => Ok(DbDelta::Discuss {
                        author: FromJson::from_json(field(fields, "author")?)?,
                        session: FromJson::from_json(field(fields, "session")?)?,
                        paper: FromJson::from_json(field(fields, "paper")?)?,
                    }),
                    "ViewPaper" => Ok(DbDelta::ViewPaper {
                        user: FromJson::from_json(field(fields, "user")?)?,
                        paper: FromJson::from_json(field(fields, "paper")?)?,
                    }),
                    other => Err(JsonError::new(format!("unknown DbDelta variant `{other}`"))),
                }
            }
            other => Err(JsonError::new(format!(
                "expected string or single-key object for DbDelta, got {}",
                other.kind()
            ))),
        }
    }
}

impl HiveDb {
    /// Captures the full platform state.
    pub fn snapshot(&self) -> PlatformSnapshot {
        self.capture_snapshot()
    }

    /// Captures a replication checkpoint: the full snapshot stamped
    /// with the current mutation generation.
    pub fn checkpoint(&self) -> ReplicaCheckpoint {
        ReplicaCheckpoint {
            version: SNAPSHOT_VERSION,
            generation: self.generation(),
            snapshot: self.capture_snapshot(),
        }
    }

    /// Restores a platform from a replication checkpoint, adopting the
    /// captured generation (empty delta journal based there) so the
    /// restored instance lines up with the leader's log.
    pub fn from_checkpoint(cp: &ReplicaCheckpoint) -> Result<Self> {
        if cp.version != SNAPSHOT_VERSION {
            return Err(HiveError::SnapshotVersion {
                found: cp.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let mut db = Self::from_snapshot(&cp.snapshot)?;
        db.adopt_generation(cp.generation);
        Ok(db)
    }

    /// Serializes the platform to JSON.
    pub fn to_json(&self) -> Result<String> {
        Ok(hive_json::to_string(&self.snapshot()))
    }

    /// Restores a platform from a snapshot, rebuilding every secondary
    /// index through the live per-row hooks. A snapshot that names a
    /// missing row, or whose log is out of clock order or later than its
    /// clock, is refused with [`HiveError::Invalid`].
    pub fn from_snapshot(snap: &PlatformSnapshot) -> Result<Self> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(HiveError::SnapshotVersion {
                found: snap.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        Self::restore_snapshot(snap)
    }

    /// Restores a platform from JSON produced by [`HiveDb::to_json`].
    pub fn from_json(json: &str) -> Result<Self> {
        let snap: PlatformSnapshot = hive_json::from_str(json)
            .map_err(|e| HiveError::Invalid(format!("parse platform snapshot: {e}")))?;
        Self::from_snapshot(&snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, WorldBuilder};

    #[test]
    fn roundtrip_preserves_everything_observable() {
        let world = WorldBuilder::new(SimConfig::small()).build();
        let db = world.db;
        let json = db.to_json().expect("serializes");
        let restored = HiveDb::from_json(&json).expect("restores");
        // Entities.
        assert_eq!(restored.user_ids(), db.user_ids());
        assert_eq!(restored.paper_ids(), db.paper_ids());
        assert_eq!(restored.session_ids(), db.session_ids());
        assert_eq!(restored.presentation_ids(), db.presentation_ids());
        assert_eq!(restored.question_ids(), db.question_ids());
        // Clock and log.
        assert_eq!(restored.now(), db.now());
        assert_eq!(restored.activity_log().len(), db.activity_log().len());
        assert_eq!(restored.activity_log(), db.activity_log());
        // Secondary indexes answer identically.
        for u in db.user_ids() {
            assert_eq!(restored.papers_of(u), db.papers_of(u));
            assert_eq!(restored.following(u), db.following(u));
            assert_eq!(restored.connections_of(u), db.connections_of(u));
            assert_eq!(restored.conferences_of(u), db.conferences_of(u));
            assert_eq!(
                restored.checkins_of(u).len(),
                db.checkins_of(u).len()
            );
            assert_eq!(restored.active_workpad_of(u), db.active_workpad_of(u));
        }
        for s in db.session_ids() {
            assert_eq!(restored.presentations_in(s), db.presentations_in(s));
            assert_eq!(restored.checkins_in(s).len(), db.checkins_in(s).len());
            assert_eq!(restored.tweets_in(s), db.tweets_in(s));
        }
    }

    #[test]
    fn restored_platform_keeps_working() {
        let world = WorldBuilder::new(SimConfig::small()).build();
        let json = world.db.to_json().unwrap();
        let mut restored = HiveDb::from_json(&json).unwrap();
        let users = restored.user_ids();
        let session = restored.session_ids()[0];
        // New activity lands on top of the restored state.
        restored.advance_clock(1);
        restored.check_in(users[0], session).expect("valid");
        let q = restored
            .ask_question(users[1], QaTarget::Session(session), "still alive?", true)
            .expect("valid");
        restored
            .answer_question(users[0], q, "fully restored")
            .expect("valid");
        assert!(!restored.tweets_in(session).is_empty());
    }

    #[test]
    fn follow_filters_survive() {
        let world = WorldBuilder::new(SimConfig::small()).build();
        let mut db = world.db;
        let users = db.user_ids();
        // Ensure a follow exists, then filter it.
        let followee = db.following(users[0]).first().copied().unwrap_or_else(|| {
            db.follow(users[0], users[5]).unwrap();
            users[5]
        });
        db.set_follow_filter(users[0], followee, vec!["discuss".into()])
            .unwrap();
        let restored = HiveDb::from_json(&db.to_json().unwrap()).unwrap();
        assert_eq!(
            restored.follow_filter(users[0], followee),
            Some(&["discuss".to_string()][..])
        );
    }

    #[test]
    fn index_corruption_cannot_be_frozen_into_a_snapshot() {
        let world = WorldBuilder::new(SimConfig::small()).build();
        let pristine_json = world.db.to_json().expect("serializes");
        let clean = HiveDb::from_json(&pristine_json).expect("restores");

        // Corrupt the secondary indexes of a loaded instance. The
        // corruption must be observable live (so the hook is not a
        // no-op) ...
        let mut corrupted = HiveDb::from_json(&pristine_json).expect("restores");
        corrupted.debug_scramble_indexes();
        let users = corrupted.user_ids();
        assert!(
            corrupted.is_following(users[0], users[1])
                || users.iter().any(|&u| corrupted.papers_of(u) != clean.papers_of(u))
                || users.iter().any(|&u| corrupted.following(u) != clean.following(u)),
            "scrambling must visibly corrupt index-backed queries"
        );

        // ... but snapshots store only primary data, so the corrupted
        // instance serializes byte-identically to the pristine one ...
        let corrupted_json = corrupted.to_json().expect("serializes");
        assert_eq!(corrupted_json, pristine_json, "indexes must not leak into snapshots");

        // ... and a fresh reload rebuilds every index identically.
        let reloaded = HiveDb::from_json(&corrupted_json).expect("restores");
        for &u in &clean.user_ids() {
            assert_eq!(reloaded.papers_of(u), clean.papers_of(u));
            assert_eq!(reloaded.following(u), clean.following(u));
            assert_eq!(reloaded.connections_of(u), clean.connections_of(u));
            assert_eq!(reloaded.checkins_of(u).len(), clean.checkins_of(u).len());
            assert_eq!(reloaded.workpads_of(u), clean.workpads_of(u));
            assert_eq!(reloaded.activities_of(u).len(), clean.activities_of(u).len());
        }
        for s in clean.session_ids() {
            assert_eq!(reloaded.presentations_in(s), clean.presentations_in(s));
            assert_eq!(reloaded.checkins_in(s).len(), clean.checkins_in(s).len());
            assert_eq!(reloaded.tweets_in(s), clean.tweets_in(s));
        }
        for q in clean.question_ids() {
            assert_eq!(reloaded.answers_to(q), clean.answers_to(q));
        }
    }

    #[test]
    fn bad_version_and_bad_json_rejected() {
        let world = WorldBuilder::new(SimConfig::small()).build();
        let mut snap = world.db.snapshot();
        snap.version = 99;
        assert_eq!(
            HiveDb::from_snapshot(&snap).err(),
            Some(HiveError::SnapshotVersion { found: 99, expected: SNAPSHOT_VERSION })
        );
        // The same typed error surfaces through the JSON load path.
        let json = world.db.to_json().unwrap().replace(
            &format!("\"version\":{SNAPSHOT_VERSION}"),
            &format!("\"version\":{}", SNAPSHOT_VERSION + 3),
        );
        assert_eq!(
            HiveDb::from_json(&json).err(),
            Some(HiveError::SnapshotVersion {
                found: SNAPSHOT_VERSION + 3,
                expected: SNAPSHOT_VERSION
            })
        );
        assert!(HiveDb::from_json("{").is_err());
    }

    /// Points the first log event `edit` accepts at a missing row.
    fn retarget(snap: &mut PlatformSnapshot, edit: fn(&mut ActivityEvent) -> bool) {
        assert!(snap.log.iter_mut().any(|r| edit(&mut r.event)), "the small world logs the event");
    }

    #[test]
    fn snapshots_naming_missing_rows_are_refused() {
        // Past any arena, and far past what a table sized by an unchecked
        // id could allocate before the refusal.
        const GONE: u32 = u32::MAX - 1;
        let clean = WorldBuilder::new(SimConfig::small()).build().db.snapshot();
        assert!(HiveDb::from_snapshot(&clean).is_ok());
        type Edit = fn(&mut PlatformSnapshot);
        let edits: [(&str, Edit); 31] = [
            ("log record's user", |s| s.log[0].user = UserId(GONE)),
            ("check-in event's session", |s| {
                retarget(s, |e| match e {
                    ActivityEvent::CheckIn(x) => {
                        *x = SessionId(GONE);
                        true
                    }
                    _ => false,
                })
            }),
            ("follow event's followee", |s| {
                retarget(s, |e| match e {
                    ActivityEvent::Follow(x) => {
                        *x = UserId(GONE);
                        true
                    }
                    _ => false,
                })
            }),
            ("view-paper event's paper", |s| {
                retarget(s, |e| match e {
                    ActivityEvent::ViewPaper(x) => {
                        *x = PaperId(GONE);
                        true
                    }
                    _ => false,
                })
            }),
            ("follow edge", |s| s.follows[0].followee = UserId(GONE)),
            ("connection", |s| s.connections[0].to = UserId(GONE)),
            ("presentation's paper", |s| s.presentations[0].paper = PaperId(GONE)),
            ("presentation's session", |s| s.presentations[0].session = SessionId(GONE)),
            ("presentation's presenter", |s| s.presentations[0].presenter = UserId(GONE)),
            ("question's target", |s| s.questions[0].target = QaTarget::Session(SessionId(GONE))),
            ("question's author", |s| s.questions[0].author = UserId(GONE)),
            ("answer's question", |s| s.answers[0].question = QuestionId(GONE)),
            ("attendance pair", |s| s.attendance[0].1 = ConferenceId(GONE)),
            ("session's chair", |s| s.sessions[0].chair = Some(UserId(GONE))),
            ("session's conference", |s| s.sessions[0].conference = ConferenceId(GONE)),
            ("active workpad", |s| s.active_workpads.push((UserId(0), WorkpadId(GONE)))),
            ("tweet's session", |s| s.tweets[0].session = SessionId(GONE)),
            ("check-in's user", |s| s.checkins[0].user = UserId(GONE)),
            ("paper's author", |s| s.papers[0].authors[0] = UserId(GONE)),
            ("paper without authors", |s| s.papers[0].authors.clear()),
            ("paper's venue", |s| s.papers[0].venue = Some(ConferenceId(GONE))),
            ("paper's citation", |s| s.papers[0].citations.push(PaperId(GONE))),
            ("comment's target", |s| {
                s.comments.push(Comment {
                    author: UserId(0),
                    target: QaTarget::Presentation(PresentationId(GONE)),
                    text: "dangling".into(),
                    commented_at: Timestamp(0),
                })
            }),
            ("workpad's owner", |s| s.workpads.push(Workpad::new(UserId(GONE), "pad"))),
            ("follow filter without a follow", |s| {
                s.follow_filters.push((UserId(0), UserId(0), vec!["discuss".into()]))
            }),
            ("log out of clock order", |s| {
                let i = s.log.windows(2).position(|w| w[0].at < w[1].at).expect("the log spans ticks");
                let (a, b) = (s.log[i].at, s.log[i + 1].at);
                (s.log[i].at, s.log[i + 1].at) = (b, a);
            }),
            ("check-ins out of clock order", |s| {
                let i = s.checkins.windows(2).position(|w| w[0].at < w[1].at).expect("spans ticks");
                (s.checkins[i].at, s.checkins[i + 1].at) = (s.checkins[i + 1].at, s.checkins[i].at);
            }),
            ("tweets out of clock order", |s| {
                let i = s.tweets.windows(2).position(|w| w[0].at < w[1].at).expect("spans ticks");
                (s.tweets[i].at, s.tweets[i + 1].at) = (s.tweets[i + 1].at, s.tweets[i].at);
            }),
            ("answers out of clock order", |s| {
                let at: Vec<Timestamp> = s.answers.iter().map(|a| a.answered_at).collect();
                let i = at.windows(2).position(|w| w[0] < w[1]).expect("spans ticks");
                (s.answers[i].answered_at, s.answers[i + 1].answered_at) = (at[i + 1], at[i]);
            }),
            ("question later than its successor", |s| {
                let last = s.questions.len() - 1;
                s.questions[0].asked_at = Timestamp(s.questions[last].asked_at.ticks() + 1);
            }),
            ("clock behind the log", |s| {
                let last = s.log[s.log.len() - 1].at.ticks();
                s.now = Timestamp(last - 1);
            }),
        ];
        for (what, edit) in edits {
            let mut snap = clean.clone();
            edit(&mut snap);
            match HiveDb::from_snapshot(&snap) {
                Err(HiveError::Invalid(_)) => {}
                other => panic!("{what}: expected a refusal, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn checkpoint_roundtrip_adopts_generation_and_patchable_journal() {
        let world = WorldBuilder::new(SimConfig::small()).build();
        let mut db = world.db;
        let users = db.user_ids();
        db.follow(users[0], users[3]).ok();
        db.follow(users[1], users[4]).ok();
        let gen = db.generation();
        assert!(gen > 1, "mutations must have advanced the generation");

        let cp = db.checkpoint();
        assert_eq!(cp.generation, gen);
        // The checkpoint survives its own JSON wire format.
        let wire = cp.to_json().to_string();
        let parsed = hive_json::Json::parse(&wire).expect("checkpoint JSON parses");
        let back = ReplicaCheckpoint::from_json(&parsed).expect("checkpoint JSON loads");
        let restored = HiveDb::from_checkpoint(&back).expect("installs");
        // The installed replica sits at the source generation with an
        // empty-but-patchable delta window, so follower caches and the
        // next ops frame line up exactly.
        assert_eq!(restored.generation(), gen);
        assert_eq!(restored.deltas_since(gen).map(<[DbDelta]>::len), Some(0));
        assert_eq!(restored.user_ids(), db.user_ids());
        assert_eq!(restored.following(users[0]), db.following(users[0]));
        // Version skew refuses typed-ly, like every snapshot path.
        let mut skewed = db.checkpoint();
        skewed.version = 99;
        assert_eq!(
            HiveDb::from_checkpoint(&skewed).err(),
            Some(HiveError::SnapshotVersion { found: 99, expected: SNAPSHOT_VERSION })
        );
    }

    #[test]
    fn db_delta_json_roundtrips_every_variant() {
        let world = WorldBuilder::new(SimConfig::small()).build();
        let u = world.db.user_ids();
        let s = world.db.session_ids()[0];
        let c = world.db.conference_ids()[0];
        let p = world.db.paper_ids()[0];
        let variants = [
            DbDelta::Neutral,
            DbDelta::Structural,
            DbDelta::Follow { follower: u[0], followee: u[1] },
            DbDelta::Connect { a: u[2], b: u[3] },
            DbDelta::CheckIn { user: u[0], session: s },
            DbDelta::Attend { user: u[1], conf: c },
            DbDelta::Discuss { author: u[2], session: s, paper: Some(p) },
            DbDelta::Discuss { author: u[2], session: s, paper: None },
            DbDelta::ViewPaper { user: u[3], paper: p },
        ];
        for d in variants {
            let wire = d.to_json().to_string();
            let parsed = hive_json::Json::parse(&wire).expect("delta JSON parses");
            assert_eq!(DbDelta::from_json(&parsed).expect("delta JSON loads"), d, "{wire}");
        }
    }
}
