//! RDF-style terms: IRIs, literals, and blank nodes.
//!
//! Floats are stored bit-exact so `Term` can be `Eq + Hash + Ord` and used
//! as a dictionary key. NaN is rejected at construction.

use std::fmt;

/// Bit-exact wrapper for an `f64` literal so terms are hashable/orderable.
///
/// Total order is the IEEE-754 total order restricted to non-NaN values
/// (NaN is rejected by [`Term::float`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FloatBits(u64);

impl FloatBits {
    /// Wraps a non-NaN float. Returns `None` for NaN.
    pub fn new(v: f64) -> Option<Self> {
        if v.is_nan() {
            None
        } else {
            // Flip the bit pattern of negatives so the u64 order matches
            // the numeric order (standard total-order trick).
            let bits = v.to_bits();
            let ordered = if bits >> 63 == 1 { !bits } else { bits ^ (1 << 63) };
            Some(FloatBits(ordered))
        }
    }

    /// Recovers the float value.
    pub fn value(self) -> f64 {
        let ordered = self.0;
        let bits = if ordered >> 63 == 1 { ordered ^ (1 << 63) } else { !ordered };
        f64::from_bits(bits)
    }
}

impl fmt::Debug for FloatBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value())
    }
}

/// An RDF-style term.
///
/// Hive encodes every knowledge-network node (users, papers, sessions,
/// concepts) as an IRI and attaches literals for names, scores, and
/// timestamps.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A named resource, e.g. `user:ann` or `rel:coauthor`.
    Iri(String),
    /// A string literal.
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A float literal (non-NaN, bit-exact).
    Float(FloatBits),
    /// A blank node with a store-local id.
    Blank(u64),
}

impl Term {
    /// Convenience constructor for an IRI term.
    pub fn iri(s: impl Into<String>) -> Self {
        Term::Iri(s.into())
    }

    /// Convenience constructor for a string literal.
    pub fn str(s: impl Into<String>) -> Self {
        Term::Str(s.into())
    }

    /// Convenience constructor for an integer literal.
    pub fn int(v: i64) -> Self {
        Term::Int(v)
    }

    /// Convenience constructor for a float literal. Panics on NaN
    /// (documented contract: NaN is not a valid RDF literal; use
    /// [`FloatBits::new`] directly for fallible construction).
    pub fn float(v: f64) -> Self {
        Term::Float(FloatBits::new(v).expect("NaN literal is not a valid RDF term")) // lint:allow(no-panic-paths)
    }

    /// True if this term may appear in subject position (IRI or blank).
    pub fn is_resource(&self) -> bool {
        matches!(self, Term::Iri(_) | Term::Blank(_))
    }

    /// The IRI string, if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(s) => write!(f, "<{s}>"),
            Term::Str(s) => write!(f, "\"{s}\""),
            Term::Int(v) => write!(f, "{v}"),
            Term::Float(v) => write!(f, "{}", v.value()),
            Term::Blank(id) => write!(f, "_:b{id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_bits_roundtrip() {
        for v in [0.0, -0.0, 1.5, -1.5, f64::MAX, f64::MIN, 1e-300, -1e-300] {
            let fb = FloatBits::new(v).unwrap();
            assert_eq!(fb.value().to_bits(), v.to_bits(), "roundtrip of {v}");
        }
    }

    #[test]
    fn float_bits_order_matches_numeric_order() {
        let vals = [-10.0, -1.0, -0.5, 0.0, 0.25, 1.0, 100.0];
        for w in vals.windows(2) {
            let a = FloatBits::new(w[0]).unwrap();
            let b = FloatBits::new(w[1]).unwrap();
            assert!(a < b, "{} < {}", w[0], w[1]);
        }
    }

    #[test]
    fn nan_rejected() {
        assert!(FloatBits::new(f64::NAN).is_none());
    }

    #[test]
    fn term_display() {
        assert_eq!(Term::iri("user:ann").to_string(), "<user:ann>");
        assert_eq!(Term::str("hello").to_string(), "\"hello\"");
        assert_eq!(Term::int(-3).to_string(), "-3");
        assert_eq!(Term::Blank(7).to_string(), "_:b7");
    }

    #[test]
    fn resource_positions() {
        assert!(Term::iri("x").is_resource());
        assert!(Term::Blank(0).is_resource());
        assert!(!Term::str("x").is_resource());
        assert!(!Term::int(1).is_resource());
    }
}
