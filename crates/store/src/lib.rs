//! # hive-store — weighted RDF data management substrate
//!
//! A from-scratch stand-in for **R2DB**, the weighted RDF data management
//! system Hive relies on for "weighted graph data management" (paper §2.2,
//! refs \[11\]\[12\]). It stores *weighted triples* `(subject, predicate,
//! object, weight)` with:
//!
//! * a two-way interning dictionary mapping RDF terms to dense ids,
//! * three permutation indexes (SPO / POS / OSP) supporting any
//!   single-pattern scan without a full sweep,
//! * conjunctive basic-graph-pattern (BGP) queries with variable bindings
//!   and selectivity-ordered left-deep joins,
//! * **ranked path queries**: cheapest and top-k weighted paths between two
//!   terms (the primitive behind Hive's relationship discovery and
//!   explanation, Figure 2 of the paper), over a CSR [`GraphView`] that
//!   a store builds once or a caller keeps current by upserting triples,
//! * snapshot persistence via the in-tree `hive-json` serializer.
//!
//! Weights are probabilities/strengths in `(0, 1]`; path cost composes
//! multiplicatively (implemented additively over `-ln w`).
//!
//! ```
//! use hive_store::{TripleStore, Term};
//!
//! let mut store = TripleStore::new();
//! let a = Term::iri("user:ann");
//! let b = Term::iri("user:bob");
//! let coauth = Term::iri("rel:coauthor");
//! store.insert(a.clone(), coauth.clone(), b.clone(), 0.9).unwrap();
//! assert_eq!(store.len(), 1);
//! let hits: Vec<_> = store.triples_matching(Some(&a), None, None).collect();
//! assert_eq!(hits.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod dict;
pub mod error;
pub mod parse;
pub mod path;
pub mod pattern;
pub mod query;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod term;
pub mod view;

pub use batch::{BatchResult, Op};
pub use dict::{TermDict, TermId};
pub use error::StoreError;
pub use parse::{parse_query, run_query, ParsedQuery, QueryRow};
pub use path::{PathQuery, RankedPath};
pub use pattern::{Binding, Pattern, PatternTerm};
pub use query::{BgpQuery, Solution};
pub use stats::StoreStats;
pub use store::{StoredTriple, TripleStore};
pub use term::Term;
pub use view::{GraphView, ViewEdge};
