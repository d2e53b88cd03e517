//! Trending analysis over live conference activity.
//!
//! The use scenario's social cue — "Zach notices that a few of the
//! researchers he is following are checking into a session on large
//! scale graph processing" — generalizes to platform-wide signals: which
//! sessions are *hot* right now, and which topics are *rising* compared
//! to the previous window. Both feed the discovery services and the
//! Figure 1 platform view.

use crate::clock::Timestamp;
use crate::db::HiveDb;
use crate::ids::{AnswerId, QuestionId, SessionId};
use crate::model::QaTarget;
use hive_text::tokenize::tokenize_filtered;
use std::collections::HashMap;

/// Activity weights for the session heat score.
#[derive(Clone, Copy, Debug)]
pub struct HeatWeights {
    /// A check-in.
    pub checkin: f64,
    /// A question (strongest engagement signal).
    pub question: f64,
    /// An answer.
    pub answer: f64,
    /// A comment.
    pub comment: f64,
    /// A bridge tweet.
    pub tweet: f64,
}

impl Default for HeatWeights {
    fn default() -> Self {
        HeatWeights { checkin: 1.0, question: 2.0, answer: 1.5, comment: 1.0, tweet: 0.5 }
    }
}

/// Sessions ranked by weighted activity inside `[from, to)`.
///
/// Reads only the window: the check-in, tweet, question and answer
/// arenas are each in clock order, so a binary search bounds each. A
/// session's heat adds its check-ins, then its tweets, then each of its
/// questions in id order followed by that question's answers, the order
/// a walk over every session and question adds them in, so the heats
/// have the same bits for any [`HeatWeights`].
pub fn trending_sessions(
    db: &HiveDb,
    from: Timestamp,
    to: Timestamp,
    k: usize,
    w: HeatWeights,
) -> Vec<(SessionId, f64)> {
    let mut heat: HashMap<SessionId, f64> = HashMap::new();
    for c in db.checkins_within(from, to) {
        *heat.entry(c.session).or_insert(0.0) += w.checkin;
    }
    for t in db.tweets_within(from, to) {
        *heat.entry(t.session).or_insert(0.0) += w.tweet;
    }
    // Each question, then its answers (`None` sorts first, and answers
    // are appended to a question in id order).
    let mut qa: Vec<(QuestionId, Option<AnswerId>)> =
        db.questions_within(from, to).map(|(q, _)| (q, None)).collect();
    qa.extend(db.answers_within(from, to).map(|(a, answer)| (answer.question, Some(a))));
    qa.sort_unstable();
    for (q, answer) in qa {
        let Ok(question) = db.get_question(q) else { continue; };
        let Some(session) = session_of(db, question.target) else { continue; };
        let add = if answer.is_some() { w.answer } else { w.question };
        *heat.entry(session).or_insert(0.0) += add;
    }
    // lint:allow(determinism-taint) -- total order with id tiebreak on the next line
    let mut out: Vec<(SessionId, f64)> = heat.into_iter().filter(|(_, h)| *h > 0.0).collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out.truncate(k);
    out
}

/// The session a Q/A target belongs to, if its presentation exists.
fn session_of(db: &HiveDb, target: QaTarget) -> Option<SessionId> {
    match target {
        QaTarget::Presentation(p) => db.get_presentation(p).ok().map(|pres| pres.session),
        QaTarget::Session(s) => Some(s),
    }
}

/// Term frequencies over all discussion text (questions, answers,
/// comments, tweets) inside a window.
fn discussion_terms(db: &HiveDb, from: Timestamp, to: Timestamp) -> HashMap<String, usize> {
    let mut counts: HashMap<String, usize> = HashMap::new();
    let in_window = |t: Timestamp| t >= from && t < to;
    let bump = |counts: &mut HashMap<String, usize>, text: &str| {
        for tok in tokenize_filtered(text) {
            *counts.entry(tok).or_insert(0) += 1;
        }
    };
    for q in db.question_ids() {
        let Ok(question) = db.get_question(q) else { continue; };
        if in_window(question.asked_at) {
            bump(&mut counts, &question.text);
        }
        for &aid in db.answers_to(q) {
            let Ok(answer) = db.get_answer(aid) else { continue; };
            if in_window(answer.answered_at) {
                bump(&mut counts, &answer.text);
            }
        }
    }
    for s in db.session_ids() {
        for &tid in db.tweets_in(s) {
            let Ok(tweet) = db.get_tweet(tid) else { continue; };
            if in_window(tweet.at) {
                bump(&mut counts, &tweet.text);
            }
        }
    }
    counts
}

/// Topics whose discussion frequency rose the most from the previous
/// window to the current one. Score = smoothed lift `(cur + 1) / (prev +
/// 1)` weighted by the current count (so one-off terms don't dominate);
/// only terms with `cur >= min_count` are reported.
pub fn rising_topics(
    db: &HiveDb,
    prev: (Timestamp, Timestamp),
    cur: (Timestamp, Timestamp),
    k: usize,
    min_count: usize,
) -> Vec<(String, f64)> {
    let before = discussion_terms(db, prev.0, prev.1);
    let now = discussion_terms(db, cur.0, cur.1);
    let mut out: Vec<(String, f64)> = now
        .into_iter()
        .filter(|(_, c)| *c >= min_count.max(1))
        .map(|(term, c)| {
            let p = before.get(&term).copied().unwrap_or(0);
            let lift = (c as f64 + 1.0) / (p as f64 + 1.0);
            (term, lift * (c as f64).sqrt())
        })
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::*;

    fn world() -> (HiveDb, Vec<crate::ids::UserId>, Vec<SessionId>) {
        let mut db = HiveDb::new();
        let users = vec![
            db.add_user(User::new("A", "X")),
            db.add_user(User::new("B", "X")),
            db.add_user(User::new("C", "Y")),
        ];
        let conf = db.add_conference(Conference::new("EDBT", 2013, "Genoa"));
        let sessions = vec![
            db.add_session(Session::new(conf, "Hot", "R1")).unwrap(),
            db.add_session(Session::new(conf, "Quiet", "R2")).unwrap(),
        ];
        (db, users, sessions)
    }

    #[test]
    fn busy_session_tops_the_ranking() {
        let (mut db, users, sessions) = world();
        db.advance_clock(5);
        for &u in &users {
            db.check_in(u, sessions[0]).unwrap();
        }
        db.check_in(users[0], sessions[1]).unwrap();
        let q = db
            .ask_question(users[1], QaTarget::Session(sessions[0]), "why so hot?", true)
            .unwrap();
        db.answer_question(users[2], q, "because questions").unwrap();
        let top = trending_sessions(&db, Timestamp(0), Timestamp(u64::MAX), 5, HeatWeights::default());
        assert_eq!(top[0].0, sessions[0]);
        assert!(top[0].1 > top[1].1);
        // Heat: 3 checkins + question(2) + answer(1.5) + tweet(0.5) = 7.
        assert!((top[0].1 - 7.0).abs() < 1e-9, "got {}", top[0].1);
    }

    #[test]
    fn window_filters_heat() {
        let (mut db, users, sessions) = world();
        db.advance_clock(5);
        db.check_in(users[0], sessions[0]).unwrap();
        db.advance_clock(100);
        db.check_in(users[1], sessions[1]).unwrap();
        let early = trending_sessions(&db, Timestamp(0), Timestamp(50), 5, HeatWeights::default());
        assert_eq!(early.len(), 1);
        assert_eq!(early[0].0, sessions[0]);
        let late = trending_sessions(&db, Timestamp(50), Timestamp(u64::MAX), 5, HeatWeights::default());
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].0, sessions[1]);
    }

    #[test]
    fn rising_topics_detect_the_shift() {
        let (mut db, users, sessions) = world();
        // Window 1: transactions chatter.
        db.advance_clock(5);
        for _ in 0..3 {
            db.ask_question(
                users[0],
                QaTarget::Session(sessions[0]),
                "transaction isolation concurrency question",
                false,
            )
            .unwrap();
        }
        // Window 2: tensors take over.
        db.advance_clock(100);
        for _ in 0..4 {
            db.ask_question(
                users[1],
                QaTarget::Session(sessions[0]),
                "tensor sketch ensembles question",
                false,
            )
            .unwrap();
        }
        let rising = rising_topics(
            &db,
            (Timestamp(0), Timestamp(50)),
            (Timestamp(50), Timestamp(u64::MAX)),
            5,
            2,
        );
        assert!(!rising.is_empty());
        let terms: Vec<&str> = rising.iter().map(|(t, _)| t.as_str()).collect();
        assert!(
            terms.contains(&"tensor") || terms.contains(&"sketch"),
            "tensor terms should rise: {terms:?}"
        );
        assert!(
            !terms.contains(&"transact"),
            "old-window terms are not rising: {terms:?}"
        );
    }

    /// The walk over every session's check-ins and tweets and every
    /// question and answer that `trending_sessions` once was, kept as
    /// its reference.
    fn trending_by_full_scan(
        db: &HiveDb,
        from: Timestamp,
        to: Timestamp,
        k: usize,
        w: HeatWeights,
    ) -> Vec<(SessionId, f64)> {
        let mut heat: HashMap<SessionId, f64> = HashMap::new();
        let in_window = |t: Timestamp| t >= from && t < to;
        for s in db.session_ids() {
            for ci in db.checkins_in(s) {
                if in_window(ci.at) {
                    *heat.entry(s).or_insert(0.0) += w.checkin;
                }
            }
            for &tid in db.tweets_in(s) {
                if db.get_tweet(tid).map(|t| in_window(t.at)).unwrap_or(false) {
                    *heat.entry(s).or_insert(0.0) += w.tweet;
                }
            }
        }
        for q in db.question_ids() {
            let Ok(question) = db.get_question(q) else { continue; };
            let Some(session) = session_of(db, question.target) else { continue; };
            if in_window(question.asked_at) {
                *heat.entry(session).or_insert(0.0) += w.question;
            }
            for &aid in db.answers_to(q) {
                let Ok(answer) = db.get_answer(aid) else { continue; };
                if in_window(answer.answered_at) {
                    *heat.entry(session).or_insert(0.0) += w.answer;
                }
            }
        }
        let mut out: Vec<(SessionId, f64)> = heat.into_iter().filter(|(_, h)| *h > 0.0).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// The windowed read equals the full scan bit for bit over random
    /// windows and weights of mixed magnitude, on the small world.
    #[test]
    fn windowed_heat_equals_the_full_scan() {
        let db = &crate::sim::WorldBuilder::new(crate::sim::SimConfig::small()).build().db;
        assert!(db.question_ids().len() > 10 && db.tweets_in(db.session_ids()[0]).len() > 1);
        let mut rng = hive_rng::Rng::seed_from_u64(11);
        let end = db.now().ticks() + 2;
        let bits = |v: &[(SessionId, f64)]| -> Vec<(SessionId, u64)> {
            v.iter().map(|&(s, h)| (s, h.to_bits())).collect()
        };
        let mut nonempty = 0;
        for _ in 0..300 {
            let a = rng.gen_range(0..end);
            let b = rng.gen_range(0..end);
            let (from, to) = (Timestamp(a.min(b)), Timestamp(a.max(b)));
            let mut weight = || rng.gen_range(0.0..1.0) * 10f64.powi(rng.gen_range(-3..4i32));
            let w = HeatWeights {
                checkin: weight(),
                question: weight(),
                answer: weight(),
                comment: weight(),
                tweet: weight(),
            };
            let k = rng.gen_range(1..40usize);
            let windowed = trending_sessions(db, from, to, k, w);
            nonempty += usize::from(!windowed.is_empty());
            assert_eq!(bits(&windowed), bits(&trending_by_full_scan(db, from, to, k, w)));
        }
        let all = (Timestamp(0), Timestamp(u64::MAX));
        let w = HeatWeights::default();
        assert_eq!(
            bits(&trending_sessions(db, all.0, all.1, 100, w)),
            bits(&trending_by_full_scan(db, all.0, all.1, 100, w))
        );
        assert!(nonempty > 100, "most windows hold activity: {nonempty}");
    }

    #[test]
    fn empty_windows_are_quiet() {
        let (db, ..) = world();
        assert!(trending_sessions(&db, Timestamp(0), Timestamp(u64::MAX), 5, HeatWeights::default()).is_empty());
        assert!(rising_topics(&db, (Timestamp(0), Timestamp(1)), (Timestamp(1), Timestamp(2)), 5, 1).is_empty());
    }
}
