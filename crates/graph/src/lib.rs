//! # hive-graph — weighted graph substrate
//!
//! Graph algorithms behind Hive's knowledge-network services (paper §2.4):
//!
//! * a dynamic directed weighted multigraph with node interning and its
//!   CSR view, and an undirected CSR with no graph behind it that a
//!   window of edges patches in place,
//! * **personalized PageRank** — the spreading-activation primitive that
//!   ranks every PPR-backed read (search, resource and peer
//!   recommendation) around the active context,
//! * **community discovery** — label propagation and greedy modularity
//!   (Table 1: "Community discovery and tracking"), with core numbers for
//!   each community's active core,
//! * **Impact Neighborhood Indexing (INI)** — an incremental index of
//!   decaying diffusion impact sets (paper ref \[6\], Kim/Candan/Sapino,
//!   CIKM'12), with a full-recompute baseline for the E2 experiment,
//! * weakly connected components.
//!
//! ```
//! use hive_graph::Graph;
//!
//! let mut g = Graph::new();
//! let a = g.add_node("ann");
//! let b = g.add_node("bob");
//! g.add_edge(a, b, 0.9);
//! assert_eq!(g.out_degree(a), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod community;
pub mod csr;
pub mod graph;
pub mod ini;
pub mod kcore;
pub mod ppr;
pub mod traverse;

pub use community::{label_propagation, louvain, modularity, nmi, nmi_of_partitions, CommunityAssignment};
pub use csr::{CsrView, UndirectedCsr};
pub use graph::{EdgeRef, Graph, NodeId};
pub use ini::{diffuse, DiffusionParams, ImpactIndex, ImpactQueryEngine, RecomputeEngine};
pub use kcore::core_numbers;
pub use ppr::{pagerank, personalized_pagerank, personalized_pagerank_csr, PprConfig};
pub use traverse::connected_components;
