//! Personal activity-history services (Table 1, last row: "Search and
//! visualize personal, group, or community activity history based on
//! current context").
//!
//! The history service filters the activity log by actor set, category,
//! time window, and free-text match against the touched resource, and
//! can bucket the result into a timeline for visualization. When an
//! [`ActivityContext`] is supplied, hits are re-ranked by contextual
//! relevance instead of pure recency.
//!
//! Log filtering is expressed as a [`ActivityQuery`] and planned
//! against the database's indexes — actor postings or the clock-ordered
//! binary search — instead of sweeping the full log.

use crate::clock::Timestamp;
use crate::context::ActivityContext;
use crate::db::index::{ActivityQuery, TickRange};
use crate::db::HiveDb;
use crate::ids::UserId;
use crate::knowledge::KnowledgeNetwork;
use crate::model::{ActivityCategory, ActivityEvent, ActivityRecord};
use std::collections::HashMap;

/// A history query, built with the chainable `with_*` setters.
///
/// ```
/// use hive_core::history::HistoryQuery;
/// use hive_core::model::ActivityCategory;
/// let q = HistoryQuery::new()
///     .with_categories(vec![ActivityCategory::CheckIn])
///     .matching("tensor")
///     .limit(10);
/// ```
#[derive(Clone, Debug, Default)]
pub struct HistoryQuery {
    pub(crate) activity: ActivityQuery,
    pub(crate) text: Option<String>,
    pub(crate) limit: usize,
}

impl HistoryQuery {
    /// An unconstrained query (every record, no limit).
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts to these actors (empty = everyone).
    pub fn with_actors(mut self, actors: Vec<UserId>) -> Self {
        self.activity = self.activity.with_actors(actors);
        self
    }

    /// Restricts to these typed categories (empty = all).
    pub fn with_categories(mut self, categories: Vec<ActivityCategory>) -> Self {
        self.activity = self.activity.with_categories(categories);
        self
    }

    /// Restricts to the half-open time window.
    pub fn within(mut self, range: TickRange) -> Self {
        self.activity = self.activity.within(range);
        self
    }

    /// Keeps only records whose touched resource's text contains the
    /// needle (case-insensitive).
    pub fn matching(mut self, needle: impl Into<String>) -> Self {
        self.text = Some(needle.into());
        self
    }

    /// Caps the number of hits (0 = unlimited).
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }
}

/// One history hit with relevance.
#[derive(Clone, Debug)]
pub struct HistoryHit {
    /// The matched record.
    pub record: ActivityRecord,
    /// Contextual relevance (recency-based when no context given).
    pub relevance: f64,
    /// Rendered description.
    pub text: String,
}

fn resource_text(db: &HiveDb, event: &ActivityEvent) -> String {
    match event {
        ActivityEvent::CheckIn(s) => db.get_session(*s).map(|x| x.text()).unwrap_or_default(),
        ActivityEvent::ViewPaper(p) => db.get_paper(*p).map(|x| x.text()).unwrap_or_default(),
        ActivityEvent::ViewPresentation(p) | ActivityEvent::UploadPresentation(p)
        | ActivityEvent::ReviseSlides(p) => db
            .get_presentation(*p)
            .map(|x| x.slides_text.clone())
            .unwrap_or_default(),
        ActivityEvent::AskQuestion(q) => {
            db.get_question(*q).map(|x| x.text.clone()).unwrap_or_default()
        }
        ActivityEvent::AnswerQuestion(a) => {
            db.get_answer(*a).map(|x| x.text.clone()).unwrap_or_default()
        }
        ActivityEvent::Comment(c) => {
            db.get_comment(*c).map(|x| x.text.clone()).unwrap_or_default()
        }
        _ => String::new(),
    }
}

/// Runs a history search. With a context, hits are ranked by the cosine
/// between the context vector and the touched resource's text; without
/// one, by recency. Candidate records come from the index planner
/// (`idx.hit`) when the query names actors or a window.
pub fn search_history(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    query: &HistoryQuery,
    ctx: Option<&ActivityContext>,
) -> Vec<HistoryHit> {
    let latest = db.now().ticks().max(1) as f64;
    let needle = query.text.as_ref().map(|t| t.to_lowercase());
    let mut hits: Vec<HistoryHit> = query
        .activity
        .run(db)
        .into_iter()
        .filter_map(|r| {
            let rtext = resource_text(db, &r.event);
            if let Some(needle) = &needle {
                if !rtext.to_lowercase().contains(needle) {
                    return None;
                }
            }
            let relevance = match ctx {
                Some(c) if !rtext.is_empty() => {
                    c.similarity(&kn.corpus.vectorize_known(&rtext))
                }
                Some(_) => 0.0,
                None => r.at.ticks() as f64 / latest, // recency
            };
            let name = db
                .get_user(r.user)
                .map(|u| u.name.clone())
                .unwrap_or_else(|_| r.user.to_string());
            Some(HistoryHit {
                record: *r,
                relevance,
                text: format!("[{}] {} — {}", r.at, name, r.event.category()),
            })
        })
        .collect();
    hits.sort_by(|a, b| {
        b.relevance
            .total_cmp(&a.relevance)
            .then_with(|| b.record.at.cmp(&a.record.at))
    });
    if query.limit > 0 {
        hits.truncate(query.limit);
    }
    hits
}

/// Buckets a user set's activity into fixed-width time bins per category
/// (the data behind a history visualization). A zero width has no bins,
/// so the timeline is empty.
pub fn timeline(
    db: &HiveDb,
    actors: &[UserId],
    bucket_width: u64,
) -> Vec<(Timestamp, HashMap<&'static str, usize>)> {
    if bucket_width == 0 {
        return Vec::new();
    }
    let records = ActivityQuery::new().with_actors(actors.to_vec()).run(db);
    let mut buckets: HashMap<u64, HashMap<&'static str, usize>> = HashMap::new();
    for r in records {
        let b = r.at.ticks() / bucket_width;
        *buckets.entry(b).or_default().entry(r.event.category()).or_insert(0) += 1;
    }
    let mut out: Vec<(Timestamp, HashMap<&'static str, usize>)> = buckets
        // lint:allow(determinism-taint) -- sorted by timestamp below
        .into_iter()
        .map(|(b, counts)| (Timestamp(b * bucket_width), counts))
        .collect();
    out.sort_by_key(|(t, _)| *t);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{build_context, ContextConfig};
    use crate::ids::SessionId;
    use crate::model::*;

    fn world() -> (HiveDb, Vec<UserId>, Vec<SessionId>) {
        let mut db = HiveDb::new();
        let users = vec![
            db.add_user(User::new("Zach", "ASU").with_interests(vec!["tensor streams".into()])),
            db.add_user(User::new("Ann", "UniTo")),
        ];
        let conf = db.add_conference(Conference::new("EDBT", 2013, "Genoa"));
        let s0 = db
            .add_session(
                Session::new(conf, "Tensor Streams", "R1")
                    .with_topics(vec!["tensor stream sketches".into()]),
            )
            .unwrap();
        let s1 = db
            .add_session(
                Session::new(conf, "Transactions", "R2")
                    .with_topics(vec!["concurrency control".into()]),
            )
            .unwrap();
        db.advance_clock(10);
        db.check_in(users[0], s0).unwrap();
        db.advance_clock(10);
        db.check_in(users[0], s1).unwrap();
        db.advance_clock(10);
        db.check_in(users[1], s0).unwrap();
        (db, users, vec![s0, s1])
    }

    #[test]
    fn actor_and_category_filters() {
        let (db, users, _) = world();
        let kn = KnowledgeNetwork::build(&db);
        let q = HistoryQuery::new()
            .with_actors(vec![users[0]])
            .with_categories(vec![ActivityCategory::CheckIn]);
        let hits = search_history(&db, &kn, &q, None);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.record.user == users[0]));
        // Recency ordering: later check-in first.
        assert!(hits[0].record.at > hits[1].record.at);
    }

    #[test]
    fn window_filter() {
        let (db, ..) = world();
        let kn = KnowledgeNetwork::build(&db);
        let q = HistoryQuery::new().within(TickRange::between(Timestamp(15), Timestamp(25)));
        let hits = search_history(&db, &kn, &q, None);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].record.at, Timestamp(20));
    }

    #[test]
    fn text_filter_matches_resource() {
        let (db, ..) = world();
        let kn = KnowledgeNetwork::build(&db);
        let q = HistoryQuery::new().matching("tensor");
        let hits = search_history(&db, &kn, &q, None);
        assert_eq!(hits.len(), 2, "both tensor-session check-ins match");
    }

    #[test]
    fn context_reranks_over_recency() {
        let (db, users, _) = world();
        let kn = KnowledgeNetwork::build(&db);
        // Zach's profile context is tensor-flavored; his *older* tensor
        // check-in should outrank the newer transactions one.
        let ctx = build_context(&db, &kn, users[0], ContextConfig::default());
        let q = HistoryQuery::new().with_actors(vec![users[0]]);
        let hits = search_history(&db, &kn, &q, Some(&ctx));
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].record.at, Timestamp(10), "tensor check-in first");
    }

    #[test]
    fn limit_respected() {
        let (db, ..) = world();
        let kn = KnowledgeNetwork::build(&db);
        let q = HistoryQuery::new().limit(1);
        assert_eq!(search_history(&db, &kn, &q, None).len(), 1);
    }

    #[test]
    fn timeline_buckets() {
        let (db, users, _) = world();
        let tl = timeline(&db, &[users[0]], 15);
        // Events at t=10 (bucket 0) and t=20 (bucket 1).
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].0, Timestamp(0));
        assert_eq!(tl[0].1["checkin"], 1);
        assert_eq!(tl[1].0, Timestamp(15));
        // Group timeline covers both users.
        let tl_all = timeline(&db, &[], 100);
        let total: usize = tl_all.iter().map(|(_, c)| c.values().sum::<usize>()).sum();
        assert_eq!(total, 3);
    }
}
