//! Property test for the replicated mutator surface: a rejected op
//! leaves no trace.
//!
//! Follower divergence detection assumes the leader and every follower
//! reject the same ops, which holds only if a rejection has no side
//! effect. Each case drives `hive_replica::ops::apply` over a seeded
//! small world with the replication workload (`synth::step_ops`)
//! interleaved with ops built to be refused: ids past the end of every
//! arena, empty texts, self-follows and self-connections, workpad edits
//! by a non-owner, presentations by a non-author and slide revisions by
//! a non-presenter. Whenever `apply` returns `Err`, the generation, the
//! delta journal, the activity log length and the bytes of
//! `HiveDb::to_json()` must equal what they were before the op.

use hive_bench::prop::check;
use hive_bench::prop_ensure;
use hive_core::ids::{
    CollectionId, ConferenceId, PaperId, PresentationId, QuestionId, SessionId, UserId, WorkpadId,
};
use hive_core::model::{Presentation, QaTarget, WorkpadItem};
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::{DbDelta, Hive, HiveDb, DB_DELTA_LOG_CAP};
use hive_replica::ops::{
    self, ActivateWorkpadOp, AnswerQuestionOp, AskQuestionOp, AttendOp, CheckInOp, CommentOp,
    CreateWorkpadOp, ExportWorkpadOp, FollowOp, ImportCollectionOp, PostTweetOp, ReplOp,
    RequestConnectionOp, RespondConnectionOp, ReviseSlidesOp, SetFollowFilterOp, ViewPaperOp,
    WorkpadAddOp, WorkpadNoteOp, WorkpadRemoveOp,
};
use hive_replica::synth;
use hive_rng::Rng;

/// Workload steps per case; each step applies the synthesized ops and
/// one op built to be refused.
const STEPS: usize = 60;

/// Cases per run: each builds its own small world.
const CASES: usize = 8;

/// Everything a mutator could leave behind.
#[derive(Debug, PartialEq)]
struct Trace {
    generation: u64,
    journal: Vec<DbDelta>,
    log_len: usize,
    json: String,
}

fn trace(db: &HiveDb) -> Result<Trace, String> {
    let generation = db.generation();
    let journal = db
        .deltas_since(generation.saturating_sub(DB_DELTA_LOG_CAP as u64))
        .ok_or("the journal window of a never-restored db is always available")?
        .to_vec();
    let json = db.to_json().map_err(|e| format!("to_json: {e:?}"))?;
    Ok(Trace { generation, journal, log_len: db.activity_log().len(), json })
}

/// An id at or past the end of an arena of `len` entries.
fn past(len: usize, rng: &mut Rng) -> u32 {
    (len + rng.gen_range(0..3usize)) as u32
}

/// Far past any arena the workload can grow.
fn far(rng: &mut Rng) -> u32 {
    (1 << 20) + rng.gen_range(0..3u32)
}

/// An op the platform should refuse, drawn against the current state.
fn refused_op(hive: &Hive, rng: &mut Rng) -> ReplOp {
    let db = hive.db();
    let users = db.user_ids();
    let u = users[rng.gen_range(0..users.len())];
    let other = users[(u.index() + 1 + rng.gen_range(0..users.len() - 1)) % users.len()];
    let session = SessionId(rng.gen_range(0..db.session_ids().len() as u32));
    let ghost_user = UserId(past(users.len(), rng));
    let empty = String::new();
    match rng.gen_range(0..18u32) {
        0 => ReplOp::Follow(FollowOp { follower: u, followee: u }),
        1 => ReplOp::RequestConnection(RequestConnectionOp { from: u, to: u }),
        2 => ReplOp::Follow(FollowOp { follower: u, followee: ghost_user }),
        3 => ReplOp::CheckIn(CheckInOp {
            user: u,
            session: SessionId(past(db.session_ids().len(), rng)),
        }),
        4 => ReplOp::Attend(AttendOp {
            user: u,
            conf: ConferenceId(past(db.conference_ids().len(), rng)),
        }),
        5 => ReplOp::Comment(CommentOp {
            author: u,
            target: QaTarget::Session(session),
            text: empty,
        }),
        6 => ReplOp::AskQuestion(AskQuestionOp {
            author: u,
            target: QaTarget::Session(session),
            text: empty,
            broadcast: rng.gen_range(0..2u32) == 0,
        }),
        7 => ReplOp::AnswerQuestion(AnswerQuestionOp {
            author: u,
            question: QuestionId(past(db.question_ids().len(), rng)),
            text: "an answer to no question".into(),
        }),
        8 => ReplOp::PostTweet(PostTweetOp {
            author: Some(u),
            handle: "@ghost".into(),
            text: empty,
            session,
        }),
        9 => ReplOp::ViewPaper(ViewPaperOp {
            user: u,
            paper: PaperId(past(db.paper_ids().len(), rng)),
        }),
        10 => ReplOp::CreateWorkpad(CreateWorkpadOp { owner: ghost_user, name: "nobody's".into() }),
        11 => ReplOp::ImportCollection(ImportCollectionOp {
            user: u,
            collection: CollectionId(far(rng)),
        }),
        12 => {
            ReplOp::RespondConnection(RespondConnectionOp { to: u, from: ghost_user, accept: true })
        }
        13 => ReplOp::SetFollowFilter(SetFollowFilterOp {
            follower: u,
            followee: ghost_user,
            categories: vec!["comment".into()],
        }),
        14 => {
            // A presenter who is not among the paper's authors.
            let papers = db.paper_ids();
            let paper = papers[rng.gen_range(0..papers.len())];
            let authors = db.get_paper(paper).map(|p| p.authors.clone()).unwrap_or_default();
            let outsider =
                users.iter().copied().find(|x| !authors.contains(x)).unwrap_or(ghost_user);
            ReplOp::AddPresentation(Presentation::new(paper, outsider, session))
        }
        15 => {
            // Slides revised by someone other than the presenter.
            let talks = db.presentation_ids();
            let pres = if talks.is_empty() {
                PresentationId(far(rng))
            } else {
                talks[rng.gen_range(0..talks.len())]
            };
            let presenter = db.get_presentation(pres).map(|p| p.presenter).unwrap_or(u);
            let user = if presenter == u { other } else { u };
            ReplOp::ReviseSlides(ReviseSlidesOp { user, pres, text: "hijacked".into() })
        }
        16 => {
            // A workpad edited by someone other than its owner (or a pad
            // that does not exist when nobody owns one yet).
            let owned: Vec<(UserId, WorkpadId)> = users
                .iter()
                .flat_map(|&owner| db.workpads_of(owner).iter().map(move |&pad| (owner, pad)))
                .collect();
            let (owner, pad) = if owned.is_empty() {
                (u, WorkpadId(far(rng)))
            } else {
                owned[rng.gen_range(0..owned.len())]
            };
            let user = if owner == u { other } else { u };
            match rng.gen_range(0..5u32) {
                0 => ReplOp::WorkpadAdd(WorkpadAddOp {
                    user,
                    pad,
                    item: WorkpadItem::Session(session),
                }),
                1 => ReplOp::WorkpadNote(WorkpadNoteOp { user, pad, text: "not mine".into() }),
                2 => {
                    ReplOp::WorkpadRemove(WorkpadRemoveOp { user, pad, item: WorkpadItem::Note(0) })
                }
                3 => ReplOp::ActivateWorkpad(ActivateWorkpadOp { user, pad }),
                _ => ReplOp::ExportWorkpad(ExportWorkpadOp { user, pad }),
            }
        }
        _ => {
            // An owner's own pad, with an item whose id overruns its arena.
            let pad = db.workpads_of(u).first().copied().unwrap_or(WorkpadId(far(rng)));
            let item = match rng.gen_range(0..4u32) {
                0 => WorkpadItem::UserAvatar(ghost_user),
                1 => WorkpadItem::Paper(PaperId(past(db.paper_ids().len(), rng))),
                2 => WorkpadItem::Question(QuestionId(past(db.question_ids().len(), rng))),
                _ => WorkpadItem::Collection(CollectionId(far(rng))),
            };
            ReplOp::WorkpadAdd(WorkpadAddOp { user: u, pad, item })
        }
    }
}

#[test]
fn rejected_ops_leave_no_trace() {
    let mut rejected = 0usize;
    let mut applied = 0usize;
    check("ops::rejected_ops_leave_no_trace", CASES, |rng| {
        let world = WorldBuilder::new(SimConfig {
            seed: rng.gen_range(0..1u64 << 32),
            ..SimConfig::small()
        })
        .build();
        let mut hive = Hive::new(world.db);
        for step in 0..STEPS {
            let mut batch = synth::step_ops(&hive, step, rng);
            batch.push(refused_op(&hive, rng));
            for op in &batch {
                let before = trace(hive.db())?;
                if ops::apply(op, &mut hive).is_ok() {
                    applied += 1;
                    continue;
                }
                rejected += 1;
                let after = trace(hive.db())?;
                prop_ensure!(
                    after == before,
                    "step {step}: rejected {} left a trace (generation {} -> {}, journal {} -> {}, log {} -> {}, json {} -> {} bytes)",
                    op.label(),
                    before.generation,
                    after.generation,
                    before.journal.len(),
                    after.journal.len(),
                    before.log_len,
                    after.log_len,
                    before.json.len(),
                    after.json.len()
                );
            }
        }
        Ok(())
    });
    // Both outcomes were exercised, so the property is not vacuous.
    assert!(rejected >= CASES * STEPS / 2, "only {rejected} ops were rejected");
    assert!(applied >= CASES * STEPS, "only {applied} ops were applied");
}
