//! Real-time update feeds (use scenario: "Zach highlights the set of
//! researchers whose (session check-in, question, comment, answer)
//! activities he would like to follow and instructs Hive to provide
//! real-time updates regarding these during the conference").
//!
//! The feed service routes three kinds of traffic:
//!
//! * **followee updates** — activities of the users one follows,
//! * **own-content updates** — questions/answers/comments landing on the
//!   user's presentations and questions ("there is already a question
//!   posted regarding the presentation he had uploaded"),
//! * the **session ticker** — the merged Hive + Twitter-bridge timeline
//!   of one session's hashtag.

use crate::clock::Timestamp;
use crate::db::index::{ActivityQuery, TickRange};
use crate::db::HiveDb;
use crate::ids::{SessionId, UserId};
use crate::model::{ActivityEvent, QaTarget};
use std::collections::HashMap;

/// One feed update.
#[derive(Clone, Debug, PartialEq)]
pub struct Update {
    /// The acting user (the followee, the asker, ...).
    pub actor: UserId,
    /// When it happened.
    pub at: Timestamp,
    /// Category label (matches `ActivityEvent::category`).
    pub category: &'static str,
    /// Rendered one-line description.
    pub text: String,
}

/// A per-user digest of everything since a timestamp.
#[derive(Clone, Debug, Default)]
pub struct FeedDigest {
    /// Updates in time order.
    pub updates: Vec<Update>,
    /// Count per category.
    pub counts: HashMap<&'static str, usize>,
}

fn render_event(db: &HiveDb, actor: UserId, event: &ActivityEvent) -> String {
    let name = db
        .get_user(actor)
        .map(|u| u.name.clone())
        .unwrap_or_else(|_| actor.to_string());
    match event {
        ActivityEvent::CheckIn(s) => {
            let title = db.get_session(*s).map(|x| x.title.clone()).unwrap_or_default();
            format!("{name} checked into \"{title}\"")
        }
        ActivityEvent::AskQuestion(q) => {
            let text = db.get_question(*q).map(|x| x.text.clone()).unwrap_or_default();
            format!("{name} asked: {text}")
        }
        ActivityEvent::AnswerQuestion(a) => {
            let text = db.get_answer(*a).map(|x| x.text.clone()).unwrap_or_default();
            format!("{name} answered: {text}")
        }
        ActivityEvent::Comment(c) => {
            let text = db.get_comment(*c).map(|x| x.text.clone()).unwrap_or_default();
            format!("{name} commented: {text}")
        }
        ActivityEvent::UploadPresentation(_) => format!("{name} uploaded a presentation"),
        ActivityEvent::ReviseSlides(_) => format!("{name} revised their slides"),
        ActivityEvent::Follow(u) => {
            let other = db.get_user(*u).map(|x| x.name.clone()).unwrap_or_default();
            format!("{name} started following {other}")
        }
        ActivityEvent::AttendConference(c) => {
            let conf = db
                .get_conference(*c)
                .map(|x| x.display_name())
                .unwrap_or_default();
            format!("{name} is attending {conf}")
        }
        _ => format!("{name} was active"),
    }
}

/// Which followee activity kinds are routed into a follower's feed.
fn is_followable(event: &ActivityEvent) -> bool {
    matches!(
        event,
        ActivityEvent::CheckIn(_)
            | ActivityEvent::AskQuestion(_)
            | ActivityEvent::AnswerQuestion(_)
            | ActivityEvent::Comment(_)
            | ActivityEvent::UploadPresentation(_)
            | ActivityEvent::ReviseSlides(_)
            | ActivityEvent::AttendConference(_)
    )
}

/// All updates for `user` since `since` (exclusive of their own actions).
pub fn updates_for(db: &HiveDb, user: UserId, since: Timestamp) -> Vec<Update> {
    let mut followees = db.following(user);
    followees.sort_unstable();
    followees.dedup();
    let mut out: Vec<Update> = Vec::new();
    if followees.is_empty() {
        // An empty actor list would mean "everyone" to the planner.
    } else {
        // Followee activities, via the actor postings + window clip.
        let query = ActivityQuery::new()
            .with_actors(followees)
            .within(TickRange::since(since));
        for rec in query.run(db) {
            let filter_ok = db
                .follow_filter(user, rec.user)
                .is_none_or(|cats| cats.iter().any(|c| c == rec.event.category()));
            if is_followable(&rec.event) && filter_ok {
                out.push(Update {
                    actor: rec.user,
                    at: rec.at,
                    category: rec.event.category(),
                    text: render_event(db, rec.user, &rec.event),
                });
            }
        }
    }
    // Questions on my presentations, answers to my questions.
    for q in db.question_ids() {
        let Ok(question) = db.get_question(q) else { continue; };
        if question.asked_at >= since && question.author != user {
            if let QaTarget::Presentation(p) = question.target {
                if db.get_presentation(p).map(|x| x.presenter == user).unwrap_or(false) {
                    out.push(Update {
                        actor: question.author,
                        at: question.asked_at,
                        category: "discuss",
                        text: format!(
                            "new question on your presentation: {}",
                            question.text
                        ),
                    });
                }
            }
        }
        if question.author == user {
            for &aid in db.answers_to(q) {
                let Ok(answer) = db.get_answer(aid) else { continue; };
                if answer.answered_at >= since && answer.author != user {
                    out.push(Update {
                        actor: answer.author,
                        at: answer.answered_at,
                        category: "discuss",
                        text: format!("your question was answered: {}", answer.text),
                    });
                }
            }
        }
    }
    out.sort_by_key(|u| (u.at, u.actor));
    out.dedup();
    out
}

/// The merged Hive + Twitter timeline of one session since `since`.
pub fn session_ticker(db: &HiveDb, session: SessionId, since: Timestamp) -> Vec<String> {
    let mut entries: Vec<(Timestamp, String)> = Vec::new();
    // Native Q&A on the session and on its presentations.
    let mut targets = vec![QaTarget::Session(session)];
    targets.extend(
        db.presentations_in(session)
            .iter()
            .map(|&p| QaTarget::Presentation(p)),
    );
    for t in targets {
        for &q in db.questions_on(t) {
            let Ok(question) = db.get_question(q) else { continue; };
            if question.asked_at >= since {
                entries.push((
                    question.asked_at,
                    render_event(db, question.author, &ActivityEvent::AskQuestion(q)),
                ));
            }
            for &aid in db.answers_to(q) {
                let Ok(answer) = db.get_answer(aid) else { continue; };
                if answer.answered_at >= since {
                    entries.push((
                        answer.answered_at,
                        render_event(db, answer.author, &ActivityEvent::AnswerQuestion(aid)),
                    ));
                }
            }
        }
        for &c in db.comments_on(t) {
            let Ok(comment) = db.get_comment(c) else { continue; };
            if comment.commented_at >= since {
                entries.push((
                    comment.commented_at,
                    render_event(db, comment.author, &ActivityEvent::Comment(c)),
                ));
            }
        }
    }
    // Bridge traffic (includes external-only tweeters).
    for &tid in db.tweets_in(session) {
        let Ok(tweet) = db.get_tweet(tid) else { continue; };
        if tweet.at >= since {
            entries.push((tweet.at, format!("[twitter] {}", tweet.render())));
        }
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    entries.into_iter().map(|(_, s)| s).collect()
}

/// Context-ranked highlights: the updates most relevant to the user's
/// current activity context (Table 1: "Generate summary previews and
/// highlights for updates and resources based on context"). Returns up
/// to `k` updates scored by the cosine between the update's rendered
/// text and the context vector (ties broken by recency).
pub fn highlights(
    db: &HiveDb,
    kn: &crate::knowledge::KnowledgeNetwork,
    ctx: &crate::context::ActivityContext,
    user: UserId,
    since: Timestamp,
    k: usize,
) -> Vec<(Update, f64)> {
    let mut scored: Vec<(Update, f64)> = updates_for(db, user, since)
        .into_iter()
        .map(|u| {
            let v = kn.corpus.vectorize_known(&u.text);
            let rel = ctx.similarity(&v);
            (u, rel)
        })
        .collect();
    scored.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then_with(|| b.0.at.cmp(&a.0.at))
    });
    scored.truncate(k);
    scored
}

/// Builds the digest for `user` since `since`.
pub fn digest(db: &HiveDb, user: UserId, since: Timestamp) -> FeedDigest {
    let updates = updates_for(db, user, since);
    let mut counts: HashMap<&'static str, usize> = HashMap::new();
    for u in &updates {
        *counts.entry(u.category).or_insert(0) += 1;
    }
    FeedDigest { updates, counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PresentationId;
    use crate::model::*;

    fn world() -> (HiveDb, Vec<UserId>, SessionId, PresentationId) {
        let mut db = HiveDb::new();
        let users = vec![
            db.add_user(User::new("Zach", "ASU")),
            db.add_user(User::new("Ann", "UniTo")),
            db.add_user(User::new("Aaron", "NEC")),
        ];
        let conf = db.add_conference(Conference::new("EDBT", 2013, "Genoa"));
        let s = db.add_session(Session::new(conf, "Tensors", "R1")).unwrap();
        let p = db
            .add_paper(Paper::new("Sketches", vec![users[0]]).with_abstract("tensors"))
            .unwrap();
        let pres = db
            .add_presentation(Presentation::new(p, users[0], s).with_slides("slides"))
            .unwrap();
        (db, users, s, pres)
    }

    #[test]
    fn followee_activity_routed() {
        let (mut db, users, s, _) = world();
        db.follow(users[0], users[1]).unwrap();
        let since = db.now();
        db.advance_clock(5);
        db.check_in(users[1], s).unwrap();
        db.check_in(users[2], s).unwrap(); // not followed
        let ups = updates_for(&db, users[0], since);
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].actor, users[1]);
        assert!(ups[0].text.contains("checked into"));
    }

    #[test]
    fn own_presentation_questions_surface() {
        let (mut db, users, _, pres) = world();
        let since = db.now();
        db.advance_clock(1);
        db.ask_question(
            users[1],
            QaTarget::Presentation(pres),
            "typo in the equation on slide 3?",
            false,
        )
        .unwrap();
        let ups = updates_for(&db, users[0], since);
        assert_eq!(ups.len(), 1);
        assert!(ups[0].text.contains("your presentation"));
        assert_eq!(ups[0].actor, users[1]);
    }

    #[test]
    fn answers_to_my_questions_surface() {
        let (mut db, users, s, _) = world();
        let since = db.now();
        db.advance_clock(1);
        let q = db
            .ask_question(users[0], QaTarget::Session(s), "scale?", false)
            .unwrap();
        db.advance_clock(1);
        db.answer_question(users[2], q, "linearly").unwrap();
        let ups = updates_for(&db, users[0], since);
        assert_eq!(ups.len(), 1);
        assert!(ups[0].text.contains("answered"));
    }

    #[test]
    fn since_filter_and_own_actions_excluded() {
        let (mut db, users, s, _) = world();
        db.follow(users[0], users[1]).unwrap();
        db.advance_clock(1);
        db.check_in(users[1], s).unwrap();
        let since = db.advance_clock(1);
        // Past activity excluded.
        assert!(updates_for(&db, users[0], since).is_empty());
        // Own activity never appears.
        db.advance_clock(1);
        db.check_in(users[0], s).unwrap();
        assert!(updates_for(&db, users[0], since).is_empty());
    }

    #[test]
    fn follow_filters_limit_categories() {
        let (mut db, users, s, _) = world();
        db.follow(users[0], users[1]).unwrap();
        db.set_follow_filter(users[0], users[1], vec!["discuss".into()]).unwrap();
        let since = db.now();
        db.advance_clock(1);
        db.check_in(users[1], s).unwrap(); // checkin: filtered out
        db.ask_question(users[1], QaTarget::Session(s), "q?", false).unwrap();
        let ups = updates_for(&db, users[0], since);
        assert_eq!(ups.len(), 1, "{ups:?}");
        assert_eq!(ups[0].category, "discuss");
        // Clearing the filter restores everything.
        db.set_follow_filter(users[0], users[1], vec![]).unwrap();
        let ups = updates_for(&db, users[0], since);
        assert_eq!(ups.len(), 2);
        // Filter requires an existing follow.
        assert!(db
            .set_follow_filter(users[0], users[2], vec!["discuss".into()])
            .is_err());
    }

    #[test]
    fn session_ticker_merges_native_and_twitter() {
        let (mut db, users, s, pres) = world();
        db.advance_clock(1);
        db.ask_question(users[1], QaTarget::Presentation(pres), "why sketches?", true)
            .unwrap();
        db.advance_clock(1);
        db.post_tweet(None, "@external_fan", "great talk!", s).unwrap();
        let ticker = session_ticker(&db, s, Timestamp(0));
        assert_eq!(ticker.len(), 3, "question + its broadcast + external tweet: {ticker:?}");
        assert!(ticker.iter().any(|l| l.contains("[twitter]") && l.contains("external_fan")));
        assert!(ticker.iter().any(|l| l.contains("why sketches?") && !l.contains("[twitter]")));
    }

    #[test]
    fn highlights_rank_by_context_relevance() {
        use crate::context::{build_context, ContextConfig};
        use crate::knowledge::KnowledgeNetwork;
        let mut db = HiveDb::new();
        let me = db.add_user(User::new("Me", "X").with_interests(vec!["tensor streams".into()]));
        let peer = db.add_user(User::new("Peer", "Y"));
        let conf = db.add_conference(Conference::new("EDBT", 2013, "Genoa"));
        let s_tensor = db
            .add_session(
                Session::new(conf, "Tensor Streams", "R1")
                    .with_topics(vec!["tensor stream sketches".into()]),
            )
            .unwrap();
        let s_txn = db
            .add_session(
                Session::new(conf, "Transactions", "R2")
                    .with_topics(vec!["concurrency control".into()]),
            )
            .unwrap();
        db.follow(me, peer).unwrap();
        let since = db.now();
        db.advance_clock(1);
        db.check_in(peer, s_txn).unwrap();
        db.advance_clock(1);
        db.check_in(peer, s_tensor).unwrap(); // relevant to my context
        db.advance_clock(1);
        let q = db
            .ask_question(peer, QaTarget::Session(s_tensor), "how big are the tensor sketches?", false)
            .unwrap();
        let _ = q;
        let kn = KnowledgeNetwork::build(&db);
        let ctx = build_context(&db, &kn, me, ContextConfig::default());
        let top = highlights(&db, &kn, &ctx, me, since, 2);
        assert_eq!(top.len(), 2);
        assert!(
            top[0].0.text.contains("Tensor") || top[0].0.text.contains("tensor"),
            "tensor update ranks first: {top:?}"
        );
        assert!(top[0].1 >= top[1].1);
    }

    #[test]
    fn digest_counts_by_category() {
        let (mut db, users, s, _) = world();
        db.follow(users[0], users[1]).unwrap();
        let since = db.now();
        db.advance_clock(1);
        db.check_in(users[1], s).unwrap();
        db.ask_question(users[1], QaTarget::Session(s), "q1", false).unwrap();
        let d = digest(&db, users[0], since);
        assert_eq!(d.updates.len(), 2);
        assert_eq!(d.counts["checkin"], 1);
        assert_eq!(d.counts["discuss"], 1);
    }
}
