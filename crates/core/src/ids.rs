//! Typed entity identifiers.
//!
//! Every platform entity gets its own index newtype so the borrow of a
//! `SessionId` can never be confused with a `UserId` at a call site.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        hive_json::impl_json_newtype!($name);

        impl $name {
            /// The prefix of [`Self::iri`], e.g. `user`.
            pub const PREFIX: &'static str = $prefix;

            /// The raw arena index.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Stable IRI form used in the knowledge network, e.g.
            /// `user:42`.
            pub fn iri(self) -> String {
                format!(concat!($prefix, ":{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, ":{}"), self.0)
            }
        }
    };
}

define_id!(
    /// A registered researcher.
    UserId, "user"
);
define_id!(
    /// A conference edition (e.g. EDBT 2013).
    ConferenceId, "conf"
);
define_id!(
    /// A technical session within a conference.
    SessionId, "session"
);
define_id!(
    /// A published paper.
    PaperId, "paper"
);
define_id!(
    /// An uploaded presentation (slides) of a paper.
    PresentationId, "pres"
);
define_id!(
    /// A question posted on a presentation or session.
    QuestionId, "question"
);
define_id!(
    /// An answer to a question.
    AnswerId, "answer"
);
define_id!(
    /// A comment on a presentation or question.
    CommentId, "comment"
);
define_id!(
    /// A user workpad.
    WorkpadId, "workpad"
);
define_id!(
    /// An exported workpad collection.
    CollectionId, "collection"
);
define_id!(
    /// A simulated tweet mirrored from the session hashtag bridge.
    TweetId, "tweet"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_and_display() {
        assert_eq!(UserId(3).iri(), "user:3");
        assert_eq!(SessionId(7).to_string(), "session:7");
        assert_eq!(PaperId(0).index(), 0);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(UserId(1));
        s.insert(UserId(1));
        assert_eq!(s.len(), 1);
        assert!(UserId(1) < UserId(2));
    }
}
