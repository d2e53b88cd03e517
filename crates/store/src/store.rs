//! The weighted triple store: dictionary + three permutation indexes.

use crate::dict::{TermDict, TermId};
use crate::error::StoreError;
use crate::term::Term;
use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;

/// A triple as stored: dictionary-encoded ids plus its weight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoredTriple {
    /// Subject id.
    pub s: TermId,
    /// Predicate id.
    pub p: TermId,
    /// Object id.
    pub o: TermId,
    /// Strength in `(0, 1]`.
    pub weight: f64,
}

/// One permutation index over `(a, b, c)` key tuples.
///
/// The store keeps three of these (SPO, POS, OSP) so that any combination
/// of bound positions can be answered with a range scan over a prefix.
#[derive(Clone, Debug, Default)]
pub(crate) struct PermIndex {
    set: BTreeSet<(u32, u32, u32)>,
}

impl PermIndex {
    fn insert(&mut self, key: (u32, u32, u32)) {
        self.set.insert(key);
    }

    /// Scans all keys whose first components match the given prefix.
    ///
    /// The `(Bound, Bound)` pair type is spelled out for clarity.
    ///
    /// `prefix` may bind the first one or two components; an unbound
    /// second component with a bound first scans the whole `(a, *, *)`
    /// range.
    fn scan_prefix(
        &self,
        first: Option<u32>,
        second: Option<u32>,
    ) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.set.range(Self::prefix_bounds(first, second)).copied()
    }

    /// Counts keys matching the prefix without materializing them —
    /// a pure range walk, no per-key tuple collection.
    fn count_prefix(&self, first: Option<u32>, second: Option<u32>) -> usize {
        self.set.range(Self::prefix_bounds(first, second)).count()
    }

    /// The `(Bound, Bound)` pair type is spelled out for clarity.
    fn prefix_bounds(
        first: Option<u32>,
        second: Option<u32>,
    ) -> (Bound<(u32, u32, u32)>, Bound<(u32, u32, u32)>) {
        type KeyBound = Bound<(u32, u32, u32)>;
        let (lo, hi): (KeyBound, KeyBound) = match (first, second) {
            (None, _) => (Bound::Unbounded, Bound::Unbounded),
            (Some(a), None) => (
                Bound::Included((a, 0, 0)),
                Bound::Included((a, u32::MAX, u32::MAX)),
            ),
            (Some(a), Some(b)) => (
                Bound::Included((a, b, 0)),
                Bound::Included((a, b, u32::MAX)),
            ),
        };
        (lo, hi)
    }

    fn len(&self) -> usize {
        self.set.len()
    }
}

/// A weighted RDF triple store (the R2DB stand-in).
///
/// Weights model relationship strength and must lie in `(0, 1]`; inserting
/// an existing triple overwrites its weight. Literals may appear only in
/// object position, as in RDF. The store keeps no mutation log: a
/// [`crate::GraphView`] taken from it with [`crate::GraphView::build`] is
/// moved forward by its holder, with the triples it upserts.
#[derive(Clone, Debug, Default)]
pub struct TripleStore {
    pub(crate) dict: TermDict,
    pub(crate) weights: HashMap<(TermId, TermId, TermId), f64>,
    spo: PermIndex,
    pos: PermIndex,
    osp: PermIndex,
}

impl TripleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triples currently stored.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Access to the term dictionary.
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    fn validate(s: &Term, p: &Term, weight: f64) -> Result<(), StoreError> {
        if !(weight > 0.0 && weight <= 1.0) {
            return Err(StoreError::InvalidWeight(weight));
        }
        if !s.is_resource() {
            return Err(StoreError::InvalidPosition("subject"));
        }
        if !matches!(p, Term::Iri(_)) {
            return Err(StoreError::InvalidPosition("predicate"));
        }
        Ok(())
    }

    /// Inserts (or re-weights) a triple. Returns `true` if the triple was
    /// not previously present.
    pub fn insert(&mut self, s: Term, p: Term, o: Term, weight: f64) -> Result<bool, StoreError> {
        Self::validate(&s, &p, weight)?;
        let si = self.dict.intern(s);
        let pi = self.dict.intern(p);
        let oi = self.dict.intern(o);
        Ok(self.insert_ids(si, pi, oi, weight))
    }

    /// Id-level insert of a validated triple.
    fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId, weight: f64) -> bool {
        let fresh = self.weights.insert((s, p, o), weight).is_none();
        if fresh {
            self.spo.insert((s.0, p.0, o.0));
            self.pos.insert((p.0, o.0, s.0));
            self.osp.insert((o.0, s.0, p.0));
        }
        fresh
    }

    /// Weight of a triple, if present.
    pub fn weight(&self, s: &Term, p: &Term, o: &Term) -> Option<f64> {
        let (si, pi, oi) = (self.dict.get(s)?, self.dict.get(p)?, self.dict.get(o)?);
        self.weights.get(&(si, pi, oi)).copied()
    }

    /// True if the triple is present (with any weight).
    pub fn contains(&self, s: &Term, p: &Term, o: &Term) -> bool {
        self.weight(s, p, o).is_some()
    }

    /// Id-level pattern scan choosing the best permutation index.
    ///
    /// Each position may be bound (`Some(id)`) or a wildcard (`None`).
    pub fn scan_ids(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Vec<StoredTriple> {
        let raw: Vec<(u32, u32, u32)> = match (s, p, o) {
            // Subject bound: SPO index, prefix (s, p?).
            (Some(si), pb, _) => self
                .spo
                .scan_prefix(Some(si.0), pb.map(|t| t.0))
                .collect(),
            // Predicate bound (subject free): POS index, prefix (p, o?).
            (None, Some(pi), ob) => self
                .pos
                .scan_prefix(Some(pi.0), ob.map(|t| t.0))
                .map(|(p_, o_, s_)| (s_, p_, o_))
                .collect(),
            // Only object bound: OSP index, prefix (o).
            (None, None, Some(oi)) => self
                .osp
                .scan_prefix(Some(oi.0), None)
                .map(|(o_, s_, p_)| (s_, p_, o_))
                .collect(),
            // Nothing bound: full SPO scan.
            (None, None, None) => self.spo.scan_prefix(None, None).collect(),
        };
        raw.into_iter()
            .filter(|&(s_, _, o_)| {
                // SPO prefix scans can't bind `o` without `p`; post-filter.
                s.is_none_or(|si| si.0 == s_) && o.is_none_or(|oi| oi.0 == o_)
            })
            .map(|(s_, p_, o_)| {
                let key = (TermId(s_), TermId(p_), TermId(o_));
                StoredTriple {
                    s: key.0,
                    p: key.1,
                    o: key.2,
                    weight: self.weights[&key],
                }
            })
            .collect()
    }

    /// Counts matches for a pattern without materializing terms (used by
    /// the BGP optimizer for selectivity ordering).
    ///
    /// Every binding combination maps to a pure prefix count on one of
    /// the three permutation indexes (or a hash probe when fully
    /// bound) — no key tuples or `StoredTriple`s are allocated.
    pub fn count_ids(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        match (s, p, o) {
            (Some(si), Some(pi), Some(oi)) => {
                usize::from(self.weights.contains_key(&(si, pi, oi)))
            }
            (Some(si), Some(pi), None) => self.spo.count_prefix(Some(si.0), Some(pi.0)),
            (Some(si), None, Some(oi)) => self.osp.count_prefix(Some(oi.0), Some(si.0)),
            (Some(si), None, None) => self.spo.count_prefix(Some(si.0), None),
            (None, Some(pi), Some(oi)) => self.pos.count_prefix(Some(pi.0), Some(oi.0)),
            (None, Some(pi), None) => self.pos.count_prefix(Some(pi.0), None),
            (None, None, Some(oi)) => self.osp.count_prefix(Some(oi.0), None),
            (None, None, None) => self.weights.len(),
        }
    }

    /// Term-level pattern scan. Unknown terms match nothing.
    pub fn triples_matching<'a>(
        &'a self,
        s: Option<&Term>,
        p: Option<&Term>,
        o: Option<&Term>,
    ) -> impl Iterator<Item = StoredTriple> + 'a {
        hive_obs::count("store.pattern_scan", 1);
        let ids = [
            s.map(|t| self.dict.get(t)),
            p.map(|t| self.dict.get(t)),
            o.map(|t| self.dict.get(t)),
        ];
        // If a bound term is unknown to the dictionary, nothing can match.
        let any_unknown = ids.iter().any(|x| matches!(x, Some(None)));
        let out = if any_unknown {
            Vec::new()
        } else {
            self.scan_ids(ids[0].flatten(), ids[1].flatten(), ids[2].flatten())
        };
        out.into_iter()
    }

    /// Resolves a stored triple's ids back to terms (see
    /// [`TermDict::resolve_triple`]).
    pub fn resolve_triple(&self, t: &StoredTriple) -> (Term, Term, Term) {
        self.dict.resolve_triple(t)
    }

    /// Iterates every stored triple in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = StoredTriple> + '_ {
        self.spo.scan_prefix(None, None).map(|(s_, p_, o_)| {
            let key = (TermId(s_), TermId(p_), TermId(o_));
            StoredTriple {
                s: key.0,
                p: key.1,
                o: key.2,
                weight: self.weights[&key],
            }
        })
    }

    /// Internal consistency check: all three indexes agree with the weight
    /// map. Used by tests and debug assertions.
    pub fn check_invariants(&self) -> bool {
        self.spo.len() == self.weights.len()
            && self.pos.len() == self.weights.len()
            && self.osp.len() == self.weights.len()
            && self
                .iter()
                .all(|t| self.weights.contains_key(&(t.s, t.p, t.o)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(triples: &[(&str, &str, &str, f64)]) -> TripleStore {
        let mut st = TripleStore::new();
        for &(s, p, o, w) in triples {
            st.insert(Term::iri(s), Term::iri(p), Term::iri(o), w).unwrap();
        }
        st
    }

    #[test]
    fn insert_and_lookup() {
        let mut st = TripleStore::new();
        assert!(st
            .insert(Term::iri("a"), Term::iri("p"), Term::iri("b"), 0.5)
            .unwrap());
        assert!(!st
            .insert(Term::iri("a"), Term::iri("p"), Term::iri("b"), 0.7)
            .unwrap());
        assert_eq!(st.len(), 1);
        assert_eq!(
            st.weight(&Term::iri("a"), &Term::iri("p"), &Term::iri("b")),
            Some(0.7)
        );
    }

    #[test]
    fn weight_validation() {
        let mut st = TripleStore::new();
        for bad in [0.0, -0.1, 1.5, f64::NAN] {
            let r = st.insert(Term::iri("a"), Term::iri("p"), Term::iri("b"), bad);
            assert!(r.is_err(), "weight {bad} should be rejected");
        }
    }

    #[test]
    fn position_validation() {
        let mut st = TripleStore::new();
        let r = st.insert(Term::str("lit"), Term::iri("p"), Term::iri("b"), 0.5);
        assert_eq!(r, Err(StoreError::InvalidPosition("subject")));
        let r = st.insert(Term::iri("a"), Term::str("lit"), Term::iri("b"), 0.5);
        assert_eq!(r, Err(StoreError::InvalidPosition("predicate")));
        // Literals are fine as objects.
        assert!(st
            .insert(Term::iri("a"), Term::iri("p"), Term::str("lit"), 0.5)
            .is_ok());
    }

    #[test]
    fn pattern_scans_use_each_index() {
        let st = store_with(&[
            ("a", "p", "b", 0.5),
            ("a", "p", "c", 0.5),
            ("b", "p", "c", 0.5),
            ("a", "q", "c", 0.5),
        ]);
        let a = Term::iri("a");
        let p = Term::iri("p");
        let c = Term::iri("c");
        assert_eq!(st.triples_matching(Some(&a), None, None).count(), 3);
        assert_eq!(st.triples_matching(Some(&a), Some(&p), None).count(), 2);
        assert_eq!(st.triples_matching(None, Some(&p), None).count(), 3);
        assert_eq!(st.triples_matching(None, Some(&p), Some(&c)).count(), 2);
        assert_eq!(st.triples_matching(None, None, Some(&c)).count(), 3);
        assert_eq!(st.triples_matching(None, None, None).count(), 4);
        // Fully bound.
        assert_eq!(st.triples_matching(Some(&a), Some(&p), Some(&c)).count(), 1);
        // s and o bound, p free (exercises the post-filter path).
        assert_eq!(st.triples_matching(Some(&a), None, Some(&c)).count(), 2);
    }

    #[test]
    fn unknown_terms_match_nothing() {
        let st = store_with(&[("a", "p", "b", 0.5)]);
        assert_eq!(
            st.triples_matching(Some(&Term::iri("zzz")), None, None).count(),
            0
        );
    }

    #[test]
    fn count_ids_matches_scan_for_every_binding_pattern() {
        let st = store_with(&[
            ("a", "p", "b", 0.5),
            ("a", "p", "c", 0.5),
            ("b", "p", "c", 0.5),
            ("a", "q", "c", 0.5),
        ]);
        let ids = |name: &str| st.dict().get(&Term::iri(name));
        let (a, p, c) = (ids("a"), ids("p"), ids("c"));
        let cases = [
            (a, p, c),
            (a, p, None),
            (a, None, c),
            (a, None, None),
            (None, p, c),
            (None, p, None),
            (None, None, c),
            (None, None, None),
        ];
        for (s, pp, o) in cases {
            assert_eq!(
                st.count_ids(s, pp, o),
                st.scan_ids(s, pp, o).len(),
                "pattern ({s:?}, {pp:?}, {o:?})"
            );
        }
        // Absent fully-bound triple counts zero.
        assert_eq!(st.count_ids(c, p, a), 0);
    }

    #[test]
    fn resolve_roundtrip() {
        let st = store_with(&[("a", "p", "b", 0.5)]);
        let t = st.iter().next().unwrap();
        let (s, p, o) = st.resolve_triple(&t);
        assert_eq!(s, Term::iri("a"));
        assert_eq!(p, Term::iri("p"));
        assert_eq!(o, Term::iri("b"));
    }
}
