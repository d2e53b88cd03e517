//! Index-equivalence property tests: the declarative query planner must
//! be *bit-identical* to the full-scan reference path, and the index
//! kept at each write must be bit-identical to a replay.
//!
//! Two layers, both driven by the in-tree seeded runner
//! (`hive_bench::prop`):
//!
//! 1. **Maintenance** — after any randomized mutation burst sequence,
//!    the [`hive_core::DbIndexes`] the mutators' hooks kept current
//!    equals the index [`HiveDb::from_snapshot`] replays, structurally
//!    (`PartialEq`) and under its digest. The bursts append
//!    every row kind that has a hook.
//! 2. **Planner** — randomized [`ActivityQuery`] mixes (actors,
//!    categories and windows) answer identically through `run`
//!    (index-planned) and `scan` (the reference path).

use hive_bench::prop::{check, DEFAULT_CASES};
use hive_bench::{prop_ensure, prop_ensure_eq};
use hive_core::clock::Timestamp;
use hive_core::model::{Paper, Presentation, QaTarget, Session, User};
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::{ActivityCategory, ActivityQuery, HiveDb, TickRange};
use hive_rng::Rng;

fn pick<T: Copy>(items: &[T], rng: &mut Rng) -> Option<T> {
    (!items.is_empty()).then(|| items[rng.gen_range(0..items.len())])
}

/// One random platform mutation. Most arms append activity (actor
/// postings, time-range growth); the others append a row of every other
/// kind that has an index hook. Refused mutations are fine: they must
/// leave the index untouched.
fn mutate(db: &mut HiveDb, rng: &mut Rng) {
    let users = db.user_ids();
    let sessions = db.session_ids();
    let papers = db.paper_ids();
    let confs = db.conference_ids();
    let presentations = db.presentation_ids();
    let questions = db.question_ids();
    let (Some(u), Some(v), Some(s), Some(p), Some(c)) = (
        pick(&users, rng),
        pick(&users, rng),
        pick(&sessions, rng),
        pick(&papers, rng),
        pick(&confs, rng),
    ) else {
        return;
    };
    if rng.gen_range(0..3u32) == 0 {
        db.advance_clock(rng.gen_range(1..5u64));
    }
    match rng.gen_range(0..21u32) {
        0 | 1 => {
            let _ = db.follow(u, v);
        }
        2 | 3 => {
            let _ = db.check_in(u, s);
        }
        4 | 5 => {
            let _ = db.view_paper(u, p);
        }
        6 => {
            let _ = db.attend(u, c);
        }
        7 => {
            let target = match pick(&presentations, rng) {
                Some(pres) if rng.gen_range(0..2u32) == 0 => QaTarget::Presentation(pres),
                _ => QaTarget::Session(s),
            };
            let broadcast = rng.gen_range(0..2u32) == 0;
            let _ = db.ask_question(u, target, "why does the sketch converge", broadcast);
        }
        8 => {
            let _ = db.post_tweet(Some(u), "@zach", "tensor streams drifting again", s);
        }
        9 => {
            db.add_user(User::new(
                format!("Latecomer {}", rng.gen_range(0..1000u32)),
                "Somewhere U",
            ));
        }
        10 => {
            let _ = db.add_session(Session::new(
                c,
                format!("Hot topic {}", rng.gen_range(0..100u32)),
                "R9",
            ));
        }
        11 => {
            let _ = db.add_paper(
                Paper::new(format!("Sketching study {}", rng.gen_range(0..100u32)), vec![u])
                    .with_abstract("streaming tensor decomposition sketches"),
            );
        }
        12 => {
            if let Some(&presenter) = db.get_paper(p).ok().and_then(|x| x.authors.first()) {
                let _ = db.add_presentation(
                    Presentation::new(p, presenter, s).with_slides("sketch slides"),
                );
            }
        }
        13 => {
            if let Some(q) = pick(&questions, rng) {
                let _ = db.answer_question(u, q, "the error bound shrinks");
            }
        }
        14 => {
            let target = match pick(&presentations, rng) {
                Some(pres) if rng.gen_range(0..2u32) == 0 => QaTarget::Presentation(pres),
                _ => QaTarget::Session(s),
            };
            let _ = db.comment(u, target, "nice result");
        }
        15 => {
            let _ = db.create_workpad(u, "to investigate later");
        }
        16 => {
            if let Some(pad) = pick(db.workpads_of(u), rng) {
                let _ = db.workpad_note(u, pad, "look into INI");
            }
        }
        17 => {
            if let Some(pad) = pick(db.workpads_of(u), rng) {
                if let Ok(col) = db.export_workpad(u, pad) {
                    let _ = db.import_collection(v, col);
                }
            }
        }
        18 => {
            let _ = db.request_connection(u, v);
        }
        19 => {
            if let Some(from) = pick(&db.pending_requests_for(u), rng) {
                let _ = db.respond_connection(u, from, rng.gen_range(0..2u32) == 0);
            }
        }
        _ => {
            if let Some(pres) = pick(&presentations, rng) {
                if let Ok(presenter) = db.get_presentation(pres).map(|x| x.presenter) {
                    let _ = db.revise_slides(presenter, pres, "revised sketch slides");
                }
            }
        }
    }
}

fn small_world(rng: &mut Rng) -> HiveDb {
    let sim = SimConfig { seed: rng.next_u64(), users: 8, ..SimConfig::small() };
    WorldBuilder::new(sim).build().db
}

// ---- layer 1: index kept at each write vs replay ---------------------

#[test]
fn patched_index_is_bitwise_identical_to_cold_build() {
    check("index::live_equals_replay", DEFAULT_CASES / 2, |rng| {
        let mut db = small_world(rng);
        // Several bursts against the same live index: the state after
        // burst k is the start of burst k+1, so drift would compound.
        for _ in 0..rng.gen_range(1..4usize) {
            for _ in 0..rng.gen_range(0..20usize) {
                mutate(&mut db, rng);
            }
            let replayed = HiveDb::from_snapshot(&db.snapshot()).map_err(|e| e.to_string())?;
            prop_ensure!(db.indexes() == replayed.indexes(), "live index diverged from its replay");
            prop_ensure_eq!(
                db.indexes().digest(),
                replayed.indexes().digest(),
                "digest must agree with the replay"
            );
        }
        Ok(())
    });
}

/// `DbIndexes::digest` on the small, medium and large worlds after 1,500
/// seeded writes of every hooked kind, with questions and comments on
/// both target kinds. Recorded on the hash-map index layout; any later
/// layout must digest the same contents to the same value.
#[test]
fn index_digests_are_pinned() {
    const GOLDEN: [u64; 3] = [0x25a0_d97b_ca04_18df, 0xca04_3d0a_e0f1_5d13, 0xbde6_1805_c65a_af74];
    let worlds = [SimConfig::small(), SimConfig::medium(), SimConfig::large()];
    let mut digests = [0u64; 3];
    for (digest, sim) in digests.iter_mut().zip(worlds) {
        let mut db = WorldBuilder::new(sim).build().db;
        let mut rng = Rng::seed_from_u64(42);
        for _ in 0..1_500 {
            mutate(&mut db, &mut rng);
        }
        let snap = db.snapshot();
        let kinds = |targets: Vec<QaTarget>| {
            let presentations = targets.iter().filter(|t| matches!(t, QaTarget::Presentation(_)));
            (presentations.count(), targets.len())
        };
        for (what, (on_presentations, all)) in [
            ("questions", kinds(snap.questions.iter().map(|q| q.target).collect())),
            ("comments", kinds(snap.comments.iter().map(|c| c.target).collect())),
        ] {
            assert!(0 < on_presentations && on_presentations < all, "{what} on both target kinds");
        }
        let replayed = HiveDb::from_snapshot(&snap).expect("restores");
        assert!(db.indexes() == replayed.indexes(), "live index == replay");
        *digest = db.indexes().digest();
    }
    assert_eq!(digests, GOLDEN, "index digests moved: {digests:#018x?}");
}

// ---- layer 2: planner vs reference scan --------------------------------

fn gen_activity_query(db: &HiveDb, rng: &mut Rng) -> ActivityQuery {
    let users = db.user_ids();
    let mut q = ActivityQuery::new();
    if rng.gen_range(0..3u32) > 0 {
        let n = rng.gen_range(1..4usize);
        let actors = (0..n).map(|_| users[rng.gen_range(0..users.len())]).collect();
        q = q.with_actors(actors);
    }
    if rng.gen_range(0..3u32) == 0 {
        let all = ActivityCategory::ALL;
        let n = rng.gen_range(1..3usize);
        let cats = (0..n).map(|_| all[rng.gen_range(0..all.len())]).collect();
        q = q.with_categories(cats);
    }
    if rng.gen_range(0..2u32) == 0 {
        let now = db.now().ticks();
        let a = rng.gen_range(0..now + 2);
        let b = rng.gen_range(0..now + 2);
        q = q.within(TickRange::between(Timestamp(a.min(b)), Timestamp(a.max(b))));
    }
    q
}

#[test]
fn planner_matches_scan_over_random_query_mixes() {
    check("index::run_equals_scan", DEFAULT_CASES / 2, |rng| {
        let mut db = small_world(rng);
        for _ in 0..rng.gen_range(0..12usize) {
            mutate(&mut db, rng);
        }
        for _ in 0..rng.gen_range(1..6usize) {
            let q = gen_activity_query(&db, rng);
            prop_ensure_eq!(q.run(&db), q.scan(&db), "activity planner vs scan ({q:?})");
        }
        Ok(())
    });
}
