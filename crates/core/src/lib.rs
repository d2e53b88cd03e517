//! # hive-core — the Hive Open Research Network platform
//!
//! A full re-implementation of the platform demonstrated in *"Hive Open
//! Research Network Platform"* (Kim, Chen, Candan, Sapino — EDBT 2013):
//! a conference-centric, cross-conference social platform where
//! researchers seed and expand research networks, track sessions, ask and
//! answer questions, follow peers, and curate **workpads** that double as
//! the active context for every search and recommendation.
//!
//! The paper's web stack (Joomla/JomSocial) is replaced by a typed,
//! in-memory, multi-indexed platform database ([`db::HiveDb`]) and a
//! service facade ([`api::Hive`]) exposing every service of the paper's
//! Table 1:
//!
//! | Table 1 group | Module |
//! |---|---|
//! | Concept map & personalization | [`knowledge`], [`context`] |
//! | Peer network services | [`peers`], [`evidence`], [`feed`] |
//! | Discovery / recommendation / preview | [`discover`], [`collab`], [`communities`], [`reports`] |
//! | Personal activity history | [`history`] |
//!
//! The knowledge substrates live in sibling crates: `hive-store`
//! (weighted RDF), `hive-graph` (graph analytics, INI), `hive-text`
//! (TF-IDF, snippets, AlphaSum), `hive-concept` (concept maps, layer
//! alignment), `hive-scent` (tensor-stream change detection).
//!
//! ```
//! use hive_core::sim::{SimConfig, WorldBuilder};
//! use hive_core::api::Hive;
//!
//! let world = WorldBuilder::new(SimConfig::small()).build();
//! let hive = Hive::new(world.db);
//! assert!(!hive.db().user_ids().is_empty());
//! let zach = hive.db().user_ids()[0];
//! let peers = hive.recommend_peers(zach, hive_core::peers::PeerRecConfig::default());
//! assert!(!peers.is_empty());
//! ```
//!
//! See `examples/` for end-to-end tours (quickstart, the paper's "Zach"
//! scenario, workpad contexts, knowledge queries).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod clock;
pub mod collab;
pub mod communities;
pub mod config;
pub mod context;
pub mod db;
pub mod discover;
pub mod error;
pub mod evidence;
pub mod feed;
pub mod history;
pub mod ids;
pub mod knowledge;
pub mod model;
pub mod peers;
pub mod persist;
pub mod ppr;
pub mod reports;
pub mod serve;
pub mod sim;
mod tier;
pub mod trends;

pub use api::Hive;
pub use db::index::{ActivityQuery, DbIndexes, TickRange};
pub use db::{DbDelta, HiveDb, DB_DELTA_LOG_CAP};
pub use error::HiveError;
pub use model::ActivityCategory;
pub use ppr::PprCache;
pub use serve::{Epoch, HiveServer, ReadHandle};
