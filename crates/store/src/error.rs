//! Error types for the store.

use std::fmt;

/// Errors produced by store operations.
#[derive(Clone, Debug, PartialEq)]
pub enum StoreError {
    /// A triple weight outside `(0, 1]` (or NaN) was supplied.
    InvalidWeight(f64),
    /// A literal appeared in subject or predicate position.
    InvalidPosition(&'static str),
    /// A term referenced by a query is not present in the store.
    UnknownTerm(String),
    /// A path query referenced identical or unknown endpoints.
    BadPathQuery(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::InvalidWeight(w) => {
                write!(f, "triple weight {w} outside (0, 1]")
            }
            StoreError::InvalidPosition(pos) => {
                write!(f, "literal term not allowed in {pos} position")
            }
            StoreError::UnknownTerm(t) => write!(f, "unknown term: {t}"),
            StoreError::BadPathQuery(msg) => write!(f, "bad path query: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(StoreError::InvalidWeight(2.0).to_string().contains("2"));
        assert!(StoreError::InvalidPosition("predicate")
            .to_string()
            .contains("predicate"));
        assert!(StoreError::UnknownTerm("x".into()).to_string().contains('x'));
        assert!(StoreError::BadPathQuery("loop".into()).to_string().contains("loop"));
    }
}
