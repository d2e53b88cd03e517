//! The replication leader: the single writer, the log sequencer, and
//! the checkpoint source.

use crate::frame::{Frame, FramePayload, OpsBatch, FRAME_VERSION};
use crate::ops::{self, ReplOp};
use crate::{ReplicaError, Result};
use hive_core::serve::{HiveServer, ReadHandle};
use hive_core::{DbDelta, Hive, HiveDb};

/// Wraps a [`HiveServer`] and turns its accepted mutations into a
/// monotonically numbered frame log.
///
/// Operations accumulate via [`Leader::apply`] and are sealed into one
/// ops frame per [`Leader::seal_frames`] call, spanning the
/// generations the leader's journal recorded for them. Every
/// `checkpoint_every` ops frames (and whenever a caller forces it, e.g.
/// to serve a follower re-sync) the leader also emits a full-snapshot
/// checkpoint frame. Sealing publishes an epoch, so the leader's own
/// readers advance exactly at frame boundaries — the unit the
/// fingerprint oracle compares leaders and followers at.
pub struct Leader {
    server: HiveServer,
    next_seq: u64,
    last_shipped_gen: u64,
    pending: Vec<ReplOp>,
    checkpoint_every: u64,
    frames_since_checkpoint: u64,
}

impl Leader {
    /// A fresh leader over `db`, checkpointing every
    /// `checkpoint_every` ops frames (min 1).
    pub fn new(db: HiveDb, checkpoint_every: u64) -> Leader {
        let server = HiveServer::new(db);
        let last_shipped_gen = server.generation();
        Leader {
            server,
            next_seq: 0,
            last_shipped_gen,
            pending: Vec::new(),
            checkpoint_every: checkpoint_every.max(1),
            frames_since_checkpoint: 0,
        }
    }

    /// Continues an existing log from a promoted follower's server:
    /// the new leader's first frame takes sequence `next_seq`, and its
    /// checkpoint cadence resumes at `frames_since_checkpoint` (the
    /// follower observed that count from the stream itself), so the
    /// continued log is frame-for-frame what a never-failed leader
    /// would have produced.
    pub fn from_server(
        server: HiveServer,
        next_seq: u64,
        checkpoint_every: u64,
        frames_since_checkpoint: u64,
    ) -> Leader {
        let last_shipped_gen = server.generation();
        Leader {
            server,
            next_seq,
            last_shipped_gen,
            pending: Vec::new(),
            checkpoint_every: checkpoint_every.max(1),
            frames_since_checkpoint,
        }
    }

    /// The sequence number the next sealed frame will take.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The writer's current mutation generation.
    pub fn generation(&self) -> u64 {
        self.server.generation()
    }

    /// Operations applied but not yet sealed into a frame.
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    /// Read access to the leader's live facade (for oracles).
    pub fn hive(&self) -> &Hive {
        self.server.hive()
    }

    /// A read handle over the leader's published epochs.
    pub fn reader(&self) -> ReadHandle {
        self.server.reader()
    }

    /// Applies one operation to the leader's platform. Accepted ops
    /// join the pending batch for the next sealed frame; rejected ops
    /// return [`ReplicaError::Rejected`] and are never shipped, so
    /// followers only ever replay mutations that took effect.
    pub fn apply(&mut self, op: ReplOp) -> Result<()> {
        match ops::apply(&op, self.server.writer()) {
            Ok(()) => {
                hive_obs::count("replica.leader.op", 1);
                self.pending.push(op);
                Ok(())
            }
            Err(e) => Err(ReplicaError::Rejected(e)),
        }
    }

    /// Seals the pending batch into frames and publishes the matching
    /// epoch. Returns zero frames when nothing happened, one ops frame
    /// for a normal batch, plus a checkpoint frame when the cadence
    /// fires or `force_checkpoint` is set (a follower asked to
    /// re-sync). If the delta journal no longer covers the unshipped
    /// window (`DB_DELTA_LOG_CAP` overflow between seals) the batch
    /// cannot be framed as ops and a checkpoint takes its place —
    /// the log never carries an unverifiable batch.
    pub fn seal_frames(&mut self, force_checkpoint: bool) -> Vec<Frame> {
        let mut frames = Vec::new();
        let mut want_checkpoint = force_checkpoint;
        if !self.pending.is_empty() {
            let start_gen = self.last_shipped_gen;
            let end_gen = self.server.generation();
            let ops = std::mem::take(&mut self.pending);
            self.server.publish();
            match self.server.hive().db().deltas_since(start_gen).map(<[DbDelta]>::to_vec) {
                Some(deltas) => {
                    frames.push(Frame {
                        version: FRAME_VERSION,
                        seq: self.take_seq(),
                        start_gen,
                        end_gen,
                        payload: FramePayload::Ops(OpsBatch { ops, deltas }),
                    });
                    self.frames_since_checkpoint += 1;
                    hive_obs::count("replica.leader.frame.ops", 1);
                }
                None => {
                    // The ops are already baked into the leader state;
                    // ship that state instead of an unverifiable batch.
                    want_checkpoint = true;
                    hive_obs::count("replica.leader.frame.window_lost", 1);
                }
            }
            self.last_shipped_gen = end_gen;
        }
        if want_checkpoint || self.frames_since_checkpoint >= self.checkpoint_every {
            frames.push(self.checkpoint_frame());
            self.frames_since_checkpoint = 0;
        }
        frames
    }

    /// Builds a checkpoint frame of the current state. Pending
    /// (unsealed) ops are deliberately *not* captured — call
    /// [`Leader::seal_frames`] instead, which orders the ops frame
    /// before the checkpoint so every follower sees the same history.
    fn checkpoint_frame(&mut self) -> Frame {
        let cp = self.server.checkpoint();
        let gen = cp.generation;
        hive_obs::count("replica.leader.frame.checkpoint", 1);
        Frame {
            version: FRAME_VERSION,
            seq: self.take_seq(),
            start_gen: gen,
            end_gen: gen,
            payload: FramePayload::Checkpoint(cp),
        }
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }
}
