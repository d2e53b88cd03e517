//! The append-only activity log.
//!
//! Every user-visible action lands here; §2.1's "understanding the
//! personal activity context through access patterns" and the
//! activity-similarity evidence both read this log, and the history
//! service (Table 1, last row) searches it.

use crate::clock::Timestamp;
use crate::ids::{
    AnswerId, CommentId, ConferenceId, PaperId, PresentationId, QuestionId, SessionId, UserId,
    WorkpadId,
};

/// One kind of platform activity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActivityEvent {
    /// Registered for / marked attendance at a conference.
    AttendConference(ConferenceId),
    /// Checked into a session.
    CheckIn(SessionId),
    /// Uploaded a presentation.
    UploadPresentation(PresentationId),
    /// Revised presentation slides.
    ReviseSlides(PresentationId),
    /// Viewed a presentation's slides.
    ViewPresentation(PresentationId),
    /// Viewed a paper.
    ViewPaper(PaperId),
    /// Asked a question.
    AskQuestion(QuestionId),
    /// Answered a question.
    AnswerQuestion(AnswerId),
    /// Commented.
    Comment(CommentId),
    /// Started following another user.
    Follow(UserId),
    /// Sent a connection request.
    ConnectRequest(UserId),
    /// Accepted a connection request from the given user.
    ConnectAccept(UserId),
    /// Created or switched the active workpad.
    ActivateWorkpad(WorkpadId),
    /// Dropped an item onto a workpad.
    WorkpadAdd(WorkpadId),
}

hive_json::impl_json_enum_payload!(ActivityEvent {
    AttendConference,
    CheckIn,
    UploadPresentation,
    ReviseSlides,
    ViewPresentation,
    ViewPaper,
    AskQuestion,
    AnswerQuestion,
    Comment,
    Follow,
    ConnectRequest,
    ConnectAccept,
    ActivateWorkpad,
    WorkpadAdd,
});

impl ActivityEvent {
    /// Coarse category label used by report tables and the history
    /// service's value lattice. Shorthand for
    /// `ActivityCategory::of(self).label()`.
    pub fn category(&self) -> &'static str {
        ActivityCategory::of(self).label()
    }
}

/// Typed coarse activity category — one per [`ActivityEvent`] group.
///
/// The query surface (`ActivityQuery`, `HistoryQuery`) takes these
/// instead of the legacy `&'static str` labels, so a typo'd category
/// fails to compile instead of silently matching nothing. The string
/// form survives as [`ActivityCategory::label`] for display, report
/// lattices, and follow-filter persistence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ActivityCategory {
    /// Conference attendance registrations.
    Attend,
    /// Session check-ins.
    CheckIn,
    /// Presentation uploads and slide revisions.
    Content,
    /// Paper and presentation views.
    Browse,
    /// Questions, answers, and comments.
    Discuss,
    /// Follows, connection requests, and accepts.
    Network,
    /// Workpad activations and additions.
    Workpad,
}

impl ActivityCategory {
    /// Every category, in declaration order.
    pub const ALL: [ActivityCategory; 7] = [
        ActivityCategory::Attend,
        ActivityCategory::CheckIn,
        ActivityCategory::Content,
        ActivityCategory::Browse,
        ActivityCategory::Discuss,
        ActivityCategory::Network,
        ActivityCategory::Workpad,
    ];

    /// Stable display label (the legacy string form).
    pub fn label(self) -> &'static str {
        match self {
            ActivityCategory::Attend => "attend",
            ActivityCategory::CheckIn => "checkin",
            ActivityCategory::Content => "content",
            ActivityCategory::Browse => "browse",
            ActivityCategory::Discuss => "discuss",
            ActivityCategory::Network => "network",
            ActivityCategory::Workpad => "workpad",
        }
    }

    /// The category of an event.
    pub fn of(event: &ActivityEvent) -> Self {
        match event {
            ActivityEvent::AttendConference(_) => ActivityCategory::Attend,
            ActivityEvent::CheckIn(_) => ActivityCategory::CheckIn,
            ActivityEvent::UploadPresentation(_) | ActivityEvent::ReviseSlides(_) => {
                ActivityCategory::Content
            }
            ActivityEvent::ViewPresentation(_) | ActivityEvent::ViewPaper(_) => {
                ActivityCategory::Browse
            }
            ActivityEvent::AskQuestion(_)
            | ActivityEvent::AnswerQuestion(_)
            | ActivityEvent::Comment(_) => ActivityCategory::Discuss,
            ActivityEvent::Follow(_)
            | ActivityEvent::ConnectRequest(_)
            | ActivityEvent::ConnectAccept(_) => ActivityCategory::Network,
            ActivityEvent::ActivateWorkpad(_) | ActivityEvent::WorkpadAdd(_) => {
                ActivityCategory::Workpad
            }
        }
    }

    /// Parses a legacy label back into the typed form.
    pub fn parse(label: &str) -> Option<Self> {
        ActivityCategory::ALL.into_iter().find(|c| c.label() == label)
    }
}

/// A timestamped log record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ActivityRecord {
    /// The acting user.
    pub user: UserId,
    /// What happened.
    pub event: ActivityEvent,
    /// When.
    pub at: Timestamp,
}

hive_json::impl_json_struct!(ActivityRecord { user, event, at });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories() {
        assert_eq!(ActivityEvent::CheckIn(SessionId(0)).category(), "checkin");
        assert_eq!(ActivityEvent::ViewPaper(PaperId(0)).category(), "browse");
        assert_eq!(ActivityEvent::AskQuestion(QuestionId(0)).category(), "discuss");
        assert_eq!(ActivityEvent::Follow(UserId(0)).category(), "network");
        assert_eq!(
            ActivityEvent::ActivateWorkpad(WorkpadId(0)).category(),
            "workpad"
        );
        assert_eq!(
            ActivityEvent::UploadPresentation(PresentationId(0)).category(),
            "content"
        );
        assert_eq!(
            ActivityEvent::AttendConference(ConferenceId(0)).category(),
            "attend"
        );
    }

    #[test]
    fn typed_categories_round_trip_their_labels() {
        for c in ActivityCategory::ALL {
            assert_eq!(ActivityCategory::parse(c.label()), Some(c));
        }
        assert_eq!(ActivityCategory::parse("no-such-category"), None);
    }
}
