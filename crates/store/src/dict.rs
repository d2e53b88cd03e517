//! Two-way interning dictionary mapping [`Term`]s to dense [`TermId`]s.
//!
//! Dictionary encoding keeps the permutation indexes compact (three `u32`s
//! per triple per index) and makes term comparisons O(1), the standard
//! design in RDF stores.

use crate::store::StoredTriple;
use crate::term::Term;
use std::collections::HashMap;

/// Dense identifier for an interned term. Ids are assigned sequentially
/// starting at 0 and are stable for the lifetime of the dictionary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

hive_json::impl_json_newtype!(TermId);

impl TermId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Two-way dictionary: `Term -> TermId` and `TermId -> Term`.
#[derive(Clone, Debug, Default)]
pub struct TermDict {
    forward: HashMap<Term, TermId>,
    reverse: Vec<Term>,
}

impl TermDict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `term`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, term: Term) -> TermId {
        if let Some(&id) = self.forward.get(&term) {
            return id;
        }
        // Capacity invariant: ids are u32, so a dictionary holds at most
        // 2^32 distinct terms. Exceeding that is unrecoverable corruption
        // territory, not a caller error — panic with a clear message.
        let id = TermId(u32::try_from(self.reverse.len()).expect("term dictionary overflow")); // lint:allow(no-panic-paths)
        self.forward.insert(term.clone(), id);
        self.reverse.push(term);
        id
    }

    /// Looks up an already-interned term without inserting.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        self.forward.get(term).copied()
    }

    /// Resolves an id back to its term. Returns `None` for unknown ids.
    pub fn resolve(&self, id: TermId) -> Option<&Term> {
        self.reverse.get(id.index())
    }

    /// Resolves a stored triple's ids back to terms.
    ///
    /// Ids unknown to the dictionary (impossible for triples obtained
    /// from a store or view over this dictionary) resolve to blank nodes
    /// rather than panicking.
    pub fn resolve_triple(&self, t: &StoredTriple) -> (Term, Term, Term) {
        let resolve =
            |id: TermId| self.resolve(id).cloned().unwrap_or(Term::Blank(u64::from(id.0)));
        (resolve(t.s), resolve(t.p), resolve(t.o))
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.reverse.len()
    }

    /// True if no term has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.reverse.is_empty()
    }

    /// Iterates `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.reverse
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = TermDict::new();
        let a = d.intern(Term::iri("a"));
        let b = d.intern(Term::iri("b"));
        let a2 = d.intern(Term::iri("a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut d = TermDict::new();
        let terms = vec![
            Term::iri("user:ann"),
            Term::str("Ann"),
            Term::int(42),
            Term::float(0.25),
            Term::Blank(3),
        ];
        let ids: Vec<_> = terms.iter().cloned().map(|t| d.intern(t)).collect();
        for (id, term) in ids.iter().zip(&terms) {
            assert_eq!(d.resolve(*id), Some(term));
        }
        assert_eq!(d.resolve(TermId(999)), None);
    }

    #[test]
    fn get_does_not_insert() {
        let mut d = TermDict::new();
        assert_eq!(d.get(&Term::iri("x")), None);
        assert!(d.is_empty());
        d.intern(Term::iri("x"));
        assert!(d.get(&Term::iri("x")).is_some());
    }

    #[test]
    fn iter_in_id_order() {
        let mut d = TermDict::new();
        d.intern(Term::iri("a"));
        d.intern(Term::iri("b"));
        let collected: Vec<_> = d.iter().map(|(id, _)| id.0).collect();
        assert_eq!(collected, vec![0, 1]);
    }
}
