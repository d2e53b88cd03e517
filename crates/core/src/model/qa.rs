//! Questions, answers, and comments — the in-session exchange machinery
//! of the use scenario ("he finds himself posting a few questions about
//! the details not clarified in the presentation").

use crate::clock::Timestamp;
use crate::ids::{PresentationId, QuestionId, SessionId, UserId};

/// What a question or comment is attached to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QaTarget {
    /// A specific presentation.
    Presentation(PresentationId),
    /// A whole session (e.g. keynote discussion traffic).
    Session(SessionId),
}

hive_json::impl_json_enum_payload!(QaTarget { Presentation, Session });

/// A posted question.
#[derive(Clone, Debug, PartialEq)]
pub struct Question {
    /// Who asked.
    pub author: UserId,
    /// Where it was asked.
    pub target: QaTarget,
    /// Question text.
    pub text: String,
    /// When it was asked.
    pub asked_at: Timestamp,
    /// If true, the question is also broadcast to the session hashtag on
    /// the (simulated) Twitter bridge.
    pub broadcast: bool,
}

hive_json::impl_json_struct!(Question { author, target, text, asked_at, broadcast });

/// An answer to a question.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// The question being answered.
    pub question: QuestionId,
    /// Who answered.
    pub author: UserId,
    /// Answer text.
    pub text: String,
    /// When.
    pub answered_at: Timestamp,
}

hive_json::impl_json_struct!(Answer { question, author, text, answered_at });

/// A comment on a presentation or session.
#[derive(Clone, Debug, PartialEq)]
pub struct Comment {
    /// Who commented.
    pub author: UserId,
    /// Where.
    pub target: QaTarget,
    /// Comment text.
    pub text: String,
    /// When.
    pub commented_at: Timestamp,
}

hive_json::impl_json_struct!(Comment { author, target, text, commented_at });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qa_construction() {
        let q = Question {
            author: UserId(1),
            target: QaTarget::Presentation(PresentationId(2)),
            text: "Does the sketch size grow with tensor order?".into(),
            asked_at: Timestamp(5),
            broadcast: true,
        };
        assert_eq!(q.target, QaTarget::Presentation(PresentationId(2)));
        let a = Answer {
            question: QuestionId(0),
            author: UserId(2),
            text: "No, only with the ensemble size.".into(),
            answered_at: Timestamp(9),
        };
        assert!(a.answered_at > q.asked_at);
        let c = Comment {
            author: UserId(3),
            target: QaTarget::Session(SessionId(4)),
            text: "Great keynote".into(),
            commented_at: Timestamp(10),
        };
        assert_eq!(c.target, QaTarget::Session(SessionId(4)));
    }
}
