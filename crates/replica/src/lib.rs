//! # hive-replica — deterministic log-shipped replication
//!
//! Multi-instance deployment for the Hive platform without a consensus
//! dependency: the platform is already a **deterministic state
//! machine** (every mutation flows through the typed [`hive_core::Hive`]
//! facade, journals a classified [`hive_core::DbDelta`], and bumps one
//! generation counter), so replication is log shipping.
//!
//! * A [`Leader`] wraps a [`hive_core::serve::HiveServer`], applies
//!   typed operations ([`ReplOp`]), and seals them into [`Frame`]s with
//!   monotone log sequence numbers. Each ops frame carries the ops
//!   *and* the classified delta stream the leader journaled for them
//!   (`start_gen..end_gen`), plus periodic full-snapshot checkpoint
//!   frames for bootstrap and truncation recovery.
//! * [`frame::encode`] writes a frame once: a checksummed plain-text
//!   header (version, sequence, generation window, payload kind), then
//!   the payload's JSON. A receiver opens the header first and parses
//!   the payload only when it needs it.
//! * [`Follower`]s replay the ops through their own facade — the same
//!   deterministic mutators journal the identical delta stream, which
//!   the follower cross-checks against the frame — then publish an
//!   epoch, so reads served from a follower's
//!   [`hive_core::serve::ReadHandle`] are bit-identical to the leader
//!   at the same sequence number *by construction*. A streaming
//!   follower checks an in-stream checkpoint's generation from its
//!   header alone; only a re-syncing follower parses and installs the
//!   snapshot.
//! * The in-process [`Transport`] is the fault-injection point: it
//!   drops, duplicates, reorders, and truncates frames deterministically
//!   from a seed. Followers detect gaps and corruption, refuse with
//!   typed errors, and re-sync from the next checkpoint frame; they
//!   never publish (and therefore never serve) a divergent epoch.
//! * [`Cluster`] orchestrates one leader plus N follower slots:
//!   commit/ship/heal rounds, follower crash + restart, and leader
//!   handoff (a caught-up follower promotes and continues the log).
//!
//! Everything is deterministic: same seed, same fault schedule, same
//! frames, same refusals. The differential and fault-injection suites
//! in `tests/replica_failover.rs` and `tests/replica_faults.rs` are the
//! point of this crate; the happy path is the easy part.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod frame;
pub mod leader;
pub mod ops;
pub mod synth;
pub mod transport;

mod follower;

pub use cluster::{Cluster, ClusterConfig, ClusterStats};
pub use follower::{Follower, FollowerState, Ingest};
pub use frame::{Frame, FramePayload, OpsBatch, FRAME_VERSION};
pub use leader::Leader;
pub use ops::ReplOp;
pub use transport::{FaultPlan, Transport, TransportStats};

use hive_core::HiveError;
use std::fmt;

/// Typed replication failures. Every refusal a follower or leader can
/// produce is one of these — no panics in library code (lint R2), and
/// a follower that returns one keeps serving its last *consistent*
/// epoch rather than anything divergent.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplicaError {
    /// The leader's platform rejected the operation with a typed
    /// error; nothing was journaled or shipped.
    Rejected(HiveError),
    /// A wire frame failed checksum, parse, or version validation —
    /// truncation or bit damage in transit. The follower flips to
    /// resync: the damaged slot's contents are unknowable.
    Corrupt(String),
    /// The follower expected sequence `expected` but received `got`:
    /// at least one frame is missing. The follower flips to resync.
    Gap {
        /// The next sequence number the follower could have applied.
        expected: u64,
        /// The sequence number that actually arrived.
        got: u64,
    },
    /// The follower's replayed state disagrees with what the frame
    /// claims (generation or delta-stream mismatch, or an op the
    /// leader accepted failed here). The follower marks itself broken
    /// and refuses all further frames: divergence is never served.
    Diverged {
        /// The frame sequence at which divergence was detected.
        seq: u64,
        /// What disagreed.
        detail: String,
    },
    /// A frame arrived at a follower already marked broken.
    Broken(String),
    /// A checkpoint frame could not be installed (version mismatch or
    /// snapshot restore failure); the follower stays in resync.
    Checkpoint(HiveError),
    /// Promotion refused: the follower is not caught up with the
    /// leader's log (or is not streaming at all).
    NotCaughtUp {
        /// The leader's next sequence number.
        leader: u64,
        /// The follower's next sequence number.
        follower: u64,
    },
    /// The named follower index does not exist in the cluster.
    NoSuchFollower(usize),
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::Rejected(e) => write!(f, "leader rejected op: {e}"),
            ReplicaError::Corrupt(d) => write!(f, "corrupt frame: {d}"),
            ReplicaError::Gap { expected, got } => {
                write!(f, "log gap: expected seq {expected}, got {got}")
            }
            ReplicaError::Diverged { seq, detail } => {
                write!(f, "diverged at seq {seq}: {detail}")
            }
            ReplicaError::Broken(d) => write!(f, "follower broken: {d}"),
            ReplicaError::Checkpoint(e) => write!(f, "checkpoint install failed: {e}"),
            ReplicaError::NotCaughtUp { leader, follower } => {
                write!(f, "not caught up: leader next seq {leader}, follower {follower}")
            }
            ReplicaError::NoSuchFollower(i) => write!(f, "no follower {i}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ReplicaError>;
