//! Scheduled update reports (paper §2.3): "Summarization of the scheduled
//! update reports are performed relying on hierarchical table
//! summarization techniques, which preserve maximal information while
//! minimizing the footprint of the reported information \[AlphaSum\]."
//!
//! An update report turns a window of the activity log into a
//! (who, where, what) table with per-column value lattices —
//! `session -> track -> conference -> *`, `user -> affiliation -> *`,
//! `event -> category -> *` — and compresses it to at most `k` rows with
//! `hive-text`'s AlphaSum implementation.

use crate::clock::Timestamp;
use crate::db::index::{ActivityQuery, TickRange};
use crate::db::HiveDb;
use crate::ids::UserId;
use crate::model::{ActivityEvent, QaTarget};
use hive_text::summarize::{summarize_table, Strategy, SummaryConfig, Table, TableSummary, ValueLattice};

/// Scope of a report.
#[derive(Clone, Debug)]
pub enum ReportScope {
    /// Everything on the platform.
    Platform,
    /// Activities of one user's followees and connections.
    Network(UserId),
    /// An explicit user group (e.g. one community).
    Group(Vec<UserId>),
}

/// A generated update report.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// Size-constrained summary rows `(who, where, what) x count`.
    pub summary: TableSummary,
    /// The time window covered.
    pub window: (Timestamp, Timestamp),
    /// Raw events before summarization.
    pub total_events: usize,
}

impl UpdateReport {
    /// Renders the report as aligned text lines.
    pub fn render(&self) -> String {
        let mut out = format!(
            "update report [{} .. {}] — {} events\n",
            self.window.0, self.window.1, self.total_events
        );
        out.push_str(&format!(
            "{:<24} {:<28} {:<12} {:>5}\n",
            "who", "where", "what", "count"
        ));
        for (row, count) in &self.summary.rows {
            out.push_str(&format!(
                "{:<24} {:<28} {:<12} {:>5}\n",
                row[0], row[1], row[2], count
            ));
        }
        out.push_str(&format!(
            "information retained: {:.0}%\n",
            self.summary.retained * 100.0
        ));
        out
    }
}

/// Where an event "happened", for the location column.
fn event_location(db: &HiveDb, event: &ActivityEvent) -> String {
    let session = match event {
        ActivityEvent::CheckIn(s) => Some(*s),
        ActivityEvent::AskQuestion(q) => db.get_question(*q).ok().and_then(|q| match q.target {
            QaTarget::Presentation(p) => db.get_presentation(p).ok().map(|x| x.session),
            QaTarget::Session(s) => Some(s),
        }),
        ActivityEvent::AnswerQuestion(a) => db
            .get_answer(*a)
            .ok()
            .and_then(|ans| db.get_question(ans.question).ok())
            .and_then(|q| match q.target {
                QaTarget::Presentation(p) => db.get_presentation(p).ok().map(|x| x.session),
                QaTarget::Session(s) => Some(s),
            }),
        ActivityEvent::UploadPresentation(p) | ActivityEvent::ReviseSlides(p)
        | ActivityEvent::ViewPresentation(p) => {
            db.get_presentation(*p).ok().map(|x| x.session)
        }
        ActivityEvent::AttendConference(c) => {
            return db
                .get_conference(*c)
                .map(|x| format!("conf {}", x.display_name()))
                .unwrap_or_else(|_| "platform".into());
        }
        _ => None,
    };
    match session {
        Some(s) => format!("session {}", db.get_session(s).map(|x| x.title.clone()).unwrap_or_default()),
        None => "platform".to_string(),
    }
}

/// Builds the (who, where, what) table and its lattices for a window.
/// The event window comes from the index planner: a scoped report pulls
/// the actor postings, a platform report binary-searches the
/// clock-ordered log for the window.
pub fn activity_table(
    db: &HiveDb,
    scope: &ReportScope,
    from: Timestamp,
    to: Timestamp,
) -> Table {
    // who: name -> affiliation -> *
    let mut who = ValueLattice::new("*");
    for u in db.user_ids() {
        let Ok(user) = db.get_user(u) else { continue; };
        who.add_child("*", user.affiliation.clone());
        who.add_child(user.affiliation.clone(), user.name.clone());
    }
    // where: "session <title>" -> "track <track>" -> "conf <name>" -> *
    let mut place = ValueLattice::new("*");
    for c in db.conference_ids() {
        let Ok(conf) = db.get_conference(c) else { continue; };
        place.add_child("*", format!("conf {}", conf.display_name()));
    }
    for s in db.session_ids() {
        let Ok(sess) = db.get_session(s) else { continue; };
        let conf = db
            .get_conference(sess.conference)
            .map(|x| format!("conf {}", x.display_name()))
            .unwrap_or_else(|_| "*".into());
        let track = format!("track {}", sess.track);
        place.add_child(conf, track.clone());
        place.add_child(track, format!("session {}", sess.title));
    }
    place.add_child("*", "platform");
    // what: leaf event label -> category -> *
    let mut what = ValueLattice::new("*");
    for cat in ["attend", "checkin", "content", "browse", "discuss", "network", "workpad"] {
        what.add_child("*", cat);
    }
    let mut table = Table::new(
        vec!["who".into(), "where".into(), "what".into()],
        vec![who, place, what],
    );
    // Scope → actor restriction. `None` means everyone (platform
    // scope); an explicit empty set means nobody and short-circuits,
    // because an empty actor list on the query side means "everyone".
    let actors: Option<Vec<UserId>> = match scope {
        ReportScope::Platform => None,
        ReportScope::Network(u) => {
            let mut set = db.following(*u);
            set.extend(db.connections_of(*u));
            set.sort_unstable();
            set.dedup();
            Some(set)
        }
        ReportScope::Group(users) => {
            let mut set = users.clone();
            set.sort_unstable();
            set.dedup();
            Some(set)
        }
    };
    if matches!(&actors, Some(set) if set.is_empty()) {
        return table;
    }
    let query = ActivityQuery::new()
        .with_actors(actors.unwrap_or_default())
        .within(TickRange::between(from, to));
    for rec in query.run(db) {
        let name = db
            .get_user(rec.user)
            .map(|u| u.name.clone())
            .unwrap_or_else(|_| rec.user.to_string());
        table.push_row(vec![
            name,
            event_location(db, &rec.event),
            rec.event.category().to_string(),
        ]);
    }
    table
}

/// Generates a size-constrained update report.
pub fn update_report(
    db: &HiveDb,
    scope: &ReportScope,
    from: Timestamp,
    to: Timestamp,
    max_rows: usize,
) -> UpdateReport {
    let table = activity_table(db, scope, from, to);
    let total_events = table.rows.len();
    let summary = summarize_table(
        &table,
        SummaryConfig { max_rows, strategy: Strategy::Greedy },
    );
    UpdateReport { summary, window: (from, to), total_events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SessionId;
    use crate::model::*;

    fn busy_world() -> (HiveDb, Vec<UserId>, Vec<SessionId>) {
        let mut db = HiveDb::new();
        let users = vec![
            db.add_user(User::new("Zach", "ASU")),
            db.add_user(User::new("Ann", "ASU")),
            db.add_user(User::new("Bob", "MIT")),
        ];
        let conf = db.add_conference(Conference::new("EDBT", 2013, "Genoa"));
        let sessions = vec![
            db.add_session(Session::new(conf, "Tensors", "R1")).unwrap(),
            db.add_session(Session::new(conf, "Graphs", "R1")).unwrap(),
            db.add_session(Session::new(conf, "Transactions", "R2")).unwrap(),
        ];
        for &u in &users {
            db.attend(u, conf).unwrap();
            for &s in &sessions {
                db.advance_clock(1);
                db.check_in(u, s).unwrap();
            }
        }
        db.ask_question(users[0], QaTarget::Session(sessions[0]), "why?", false)
            .unwrap();
        (db, users, sessions)
    }

    #[test]
    fn report_respects_budget_and_covers_all_events() {
        let (db, ..) = busy_world();
        let report = update_report(
            &db,
            &ReportScope::Platform,
            Timestamp(0),
            Timestamp(u64::MAX),
            4,
        );
        assert!(report.summary.rows.len() <= 4);
        let covered: usize = report.summary.rows.iter().map(|(_, c)| c).sum();
        assert_eq!(covered, report.total_events);
        assert!(report.total_events >= 13); // 3 attends + 9 checkins + question
    }

    #[test]
    fn generalization_uses_the_lattices() {
        let (db, ..) = busy_world();
        let report = update_report(
            &db,
            &ReportScope::Platform,
            Timestamp(0),
            Timestamp(u64::MAX),
            3,
        );
        // With 3 users × several sessions squeezed into 3 rows, at least
        // one cell must have been generalized above leaf level.
        let has_generalized = report.summary.rows.iter().any(|(row, _)| {
            row[0] == "*"
                || row[0] == "ASU"
                || row[0] == "MIT"
                || row[1].starts_with("track")
                || row[1].starts_with("conf")
                || row[1] == "*"
        });
        assert!(has_generalized, "{:?}", report.summary.rows);
        assert!(report.summary.retained > 0.0);
    }

    #[test]
    fn network_scope_filters_actors() {
        let (mut db, users, sessions) = busy_world();
        db.follow(users[0], users[1]).unwrap();
        db.advance_clock(1);
        db.check_in(users[1], sessions[0]).unwrap();
        db.check_in(users[2], sessions[0]).unwrap();
        let report = update_report(
            &db,
            &ReportScope::Network(users[0]),
            Timestamp(0),
            Timestamp(u64::MAX),
            10,
        );
        // Only Ann's rows (Zach follows Ann, not Bob).
        for (row, _) in &report.summary.rows {
            assert_ne!(row[0], "Bob");
        }
        assert!(report.total_events > 0);
    }

    #[test]
    fn group_scope_and_render() {
        let (db, users, _) = busy_world();
        let report = update_report(
            &db,
            &ReportScope::Group(vec![users[2]]),
            Timestamp(0),
            Timestamp(u64::MAX),
            2,
        );
        let text = report.render();
        assert!(text.contains("update report"));
        assert!(text.contains("count"));
        assert!(text.contains("information retained"));
    }

    #[test]
    fn empty_window_is_fine() {
        let (db, ..) = busy_world();
        let report = update_report(
            &db,
            &ReportScope::Platform,
            Timestamp(u64::MAX - 1),
            Timestamp(u64::MAX),
            5,
        );
        assert_eq!(report.total_events, 0);
        assert!(report.summary.rows.is_empty());
    }
}
