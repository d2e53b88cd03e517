//! Snapshot persistence: serialize a store to JSON and back.
//!
//! Hive persists knowledge-network layers between conference editions
//! ("same conference, different years" is one of the evidence types), so
//! the store supports full dump/restore. The snapshot format is a flat
//! list of term-level triples, which keeps it stable across dictionary
//! id assignment changes.

use crate::error::StoreError;
use crate::store::TripleStore;
use crate::term::Term;

/// Serializable form of a store: term-level triples with weights.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Format version for forward compatibility.
    pub version: u32,
    /// All triples as `(s, p, o, weight)`, in term order.
    pub triples: Vec<(Term, Term, Term, f64)>,
}

hive_json::impl_json_struct!(Snapshot { version, triples });

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

impl TripleStore {
    /// Captures the full store contents, sorted by `(s, p, o)` terms so
    /// that the snapshot does not depend on dictionary id assignment: a
    /// store restored from it captures the same snapshot again.
    pub fn snapshot(&self) -> Snapshot {
        let mut triples: Vec<(Term, Term, Term, f64)> = self
            .iter()
            .map(|t| {
                let (s, p, o) = self.resolve_triple(&t);
                (s, p, o, t.weight)
            })
            .collect();
        triples.sort_by(|a, b| (&a.0, &a.1, &a.2).cmp(&(&b.0, &b.1, &b.2)));
        Snapshot { version: SNAPSHOT_VERSION, triples }
    }

    /// Restores a store from a snapshot.
    pub fn from_snapshot(snap: &Snapshot) -> Result<Self, StoreError> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(StoreError::SnapshotVersion {
                found: snap.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let mut st = TripleStore::new();
        for (s, p, o, w) in &snap.triples {
            st.insert(s.clone(), p.clone(), o.clone(), *w)?;
        }
        Ok(st)
    }

    /// Serializes the store to a JSON string.
    pub fn to_json(&self) -> Result<String, StoreError> {
        Ok(hive_json::to_string(&self.snapshot()))
    }

    /// Restores a store from a JSON string produced by [`Self::to_json`].
    pub fn from_json(json: &str) -> Result<Self, StoreError> {
        let snap: Snapshot =
            hive_json::from_str(json).map_err(|e| StoreError::Snapshot(e.to_string()))?;
        Self::from_snapshot(&snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_contents() {
        let mut st = TripleStore::new();
        st.insert(Term::iri("a"), Term::iri("p"), Term::iri("b"), 0.5).unwrap();
        st.insert(Term::iri("a"), Term::iri("name"), Term::str("Ann"), 1.0).unwrap();
        st.insert(Term::iri("a"), Term::iri("age"), Term::int(30), 1.0).unwrap();
        st.insert(Term::iri("a"), Term::iri("score"), Term::float(0.75), 0.9).unwrap();
        let json = st.to_json().unwrap();
        let restored = TripleStore::from_json(&json).unwrap();
        assert_eq!(restored.len(), st.len());
        assert_eq!(
            restored.weight(&Term::iri("a"), &Term::iri("p"), &Term::iri("b")),
            Some(0.5)
        );
        assert_eq!(
            restored.weight(&Term::iri("a"), &Term::iri("score"), &Term::float(0.75)),
            Some(0.9)
        );
        assert!(restored.check_invariants());
    }

    #[test]
    fn bad_version_rejected_with_found_and_expected() {
        let snap = Snapshot { version: 99, triples: vec![] };
        assert_eq!(
            TripleStore::from_snapshot(&snap).err(),
            Some(StoreError::SnapshotVersion { found: 99, expected: SNAPSHOT_VERSION })
        );
        // The same typed error surfaces through the JSON load path.
        let mut json = TripleStore::new().to_json().unwrap();
        json = json.replace(
            &format!("\"version\":{SNAPSHOT_VERSION}"),
            &format!("\"version\":{}", SNAPSHOT_VERSION + 7),
        );
        assert_eq!(
            TripleStore::from_json(&json).err(),
            Some(StoreError::SnapshotVersion {
                found: SNAPSHOT_VERSION + 7,
                expected: SNAPSHOT_VERSION
            })
        );
    }

    #[test]
    fn bad_json_rejected() {
        assert!(TripleStore::from_json("not json").is_err());
    }

    #[test]
    fn empty_store_roundtrips() {
        let st = TripleStore::new();
        let restored = TripleStore::from_json(&st.to_json().unwrap()).unwrap();
        assert!(restored.is_empty());
    }
}
