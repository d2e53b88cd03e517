//! The replication follower: replays the frame log through its own
//! deterministic state machine and serves epochs that are bit-identical
//! to the leader's at the same sequence number.

use crate::frame::{self, Opened, OpsBatch, PayloadKind};
use crate::ops;
use crate::{ReplicaError, Result};
use hive_core::persist::ReplicaCheckpoint;
use hive_core::serve::{HiveServer, ReadHandle};
use hive_core::Hive;
use hive_json::FromJson;

/// Where a follower is in the protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum FollowerState {
    /// Caught up with the contiguous prefix it has seen; applying ops
    /// frames as they arrive.
    Streaming,
    /// Waiting for a checkpoint frame: fresh boot, a detected gap, or
    /// a corrupt frame. Ops frames are dropped (not errors) until the
    /// checkpoint lands.
    NeedsResync {
        /// Why the follower fell out of the stream.
        reason: String,
    },
    /// Replay disagreed with what a frame claimed: the follower
    /// refuses everything from here on and keeps serving its last
    /// consistent epoch. Divergence is never served.
    Broken {
        /// What disagreed.
        reason: String,
    },
}

/// What one ingested wire frame did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ingest {
    /// An ops frame applied cleanly; the follower published an epoch.
    Applied {
        /// Operations replayed from the frame.
        ops: usize,
    },
    /// A checkpoint frame was installed (re-sync) or verified (in
    /// stream).
    Checkpoint,
    /// A frame below the follower's next sequence arrived again;
    /// ignored.
    Duplicate,
    /// An ops frame arrived while waiting for re-sync; dropped.
    AwaitingResync,
}

/// A log-shipped replica. Reads go through [`Follower::reader`]; the
/// handle keeps serving the last published (always consistent) epoch
/// no matter what the transport does to later frames.
pub struct Follower {
    id: usize,
    server: Option<HiveServer>,
    next_seq: u64,
    state: FollowerState,
    frames_since_checkpoint: u64,
}

impl Follower {
    /// A blank follower that has never seen a checkpoint (fresh boot
    /// or post-crash restart). It waits for a checkpoint frame.
    pub fn blank(id: usize) -> Follower {
        Follower {
            id,
            server: None,
            next_seq: 0,
            state: FollowerState::NeedsResync { reason: "bootstrap".to_string() },
            frames_since_checkpoint: 0,
        }
    }

    /// Ops frames observed since the last checkpoint frame. Mirrors
    /// the leader's checkpoint-cadence counter (both reset at every
    /// checkpoint), so a promoted follower continues the exact frame
    /// schedule a never-failed leader would have produced.
    pub fn frames_since_checkpoint(&self) -> u64 {
        self.frames_since_checkpoint
    }

    /// This follower's index (label in counters and reports).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Protocol state.
    pub fn state(&self) -> &FollowerState {
        &self.state
    }

    /// True while caught up and applying.
    pub fn is_streaming(&self) -> bool {
        self.state == FollowerState::Streaming
    }

    /// True while waiting for a checkpoint.
    pub fn needs_resync(&self) -> bool {
        matches!(self.state, FollowerState::NeedsResync { .. })
    }

    /// True once divergence was detected.
    pub fn is_broken(&self) -> bool {
        matches!(self.state, FollowerState::Broken { .. })
    }

    /// The sequence number the follower can apply next.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The replica's current mutation generation (0 before bootstrap).
    pub fn generation(&self) -> u64 {
        self.server.as_ref().map_or(0, HiveServer::generation)
    }

    /// How many frames behind a leader whose next sequence is
    /// `leader_next_seq` this follower is.
    pub fn lag(&self, leader_next_seq: u64) -> u64 {
        leader_next_seq.saturating_sub(self.next_seq)
    }

    /// A read handle over the replica's published epochs
    /// (`None` before the bootstrap checkpoint).
    pub fn reader(&self) -> Option<ReadHandle> {
        self.server.as_ref().map(HiveServer::reader)
    }

    /// Read access to the replica's facade, for oracles (`None` before
    /// the bootstrap checkpoint).
    pub fn hive(&self) -> Option<&Hive> {
        self.server.as_ref().map(HiveServer::hive)
    }

    /// Surrenders the inner server for promotion.
    pub(crate) fn into_server(self) -> Option<HiveServer> {
        self.server
    }

    /// Ingests one wire frame. Damage and gaps flip the follower into
    /// re-sync and surface as typed errors; divergence marks it broken.
    /// Either way the replica's published epochs stay consistent — a
    /// failed ingest publishes nothing.
    ///
    /// The wire is opened header-first. A payload is parsed only to be
    /// replayed (ops) or installed (a checkpoint while re-syncing); a
    /// duplicate or an in-stream checkpoint is judged from its header.
    pub fn ingest(&mut self, wire: &str) -> Result<Ingest> {
        if let FollowerState::Broken { reason } = &self.state {
            return Err(ReplicaError::Broken(reason.clone()));
        }
        let frame = match frame::open(wire) {
            Ok(f) => f,
            Err(e) => return self.refuse_corrupt(e),
        };
        if frame.seq < self.next_seq {
            hive_obs::count("replica.follower.dup", 1);
            return Ok(Ingest::Duplicate);
        }
        match frame.kind {
            PayloadKind::Checkpoint => self.ingest_checkpoint(&frame),
            PayloadKind::Ops => self.ingest_ops(&frame),
        }
    }

    fn ingest_checkpoint(&mut self, frame: &Opened) -> Result<Ingest> {
        match &self.state {
            FollowerState::NeedsResync { .. } => self.install_checkpoint(frame),
            FollowerState::Streaming => {
                if frame.seq > self.next_seq {
                    return self.flag_gap(frame.seq);
                }
                // In-stream checkpoint: the replica must already *be*
                // this state — a generation mismatch is divergence.
                if self.generation() != frame.end_gen {
                    return self.flag_divergence(
                        frame.seq,
                        format!(
                            "checkpoint generation {} but replica is at {}",
                            frame.end_gen,
                            self.generation()
                        ),
                    );
                }
                self.next_seq = frame.seq + 1;
                self.frames_since_checkpoint = 0;
                hive_obs::count("replica.follower.checkpoint.verified", 1);
                Ok(Ingest::Checkpoint)
            }
            FollowerState::Broken { reason } => Err(ReplicaError::Broken(reason.clone())),
        }
    }

    fn install_checkpoint(&mut self, frame: &Opened) -> Result<Ingest> {
        let cp: ReplicaCheckpoint = match parse_payload(frame) {
            Ok(cp) => cp,
            Err(e) => return self.refuse_corrupt(e),
        };
        if cp.generation != frame.end_gen {
            return self.flag_divergence(
                frame.seq,
                format!(
                    "checkpoint frame claims generation {} but carries {}",
                    frame.end_gen, cp.generation
                ),
            );
        }
        match HiveServer::from_checkpoint(&cp) {
            Ok(server) => {
                self.server = Some(server);
                self.next_seq = frame.seq + 1;
                self.frames_since_checkpoint = 0;
                self.state = FollowerState::Streaming;
                hive_obs::count("replica.follower.resync.install", 1);
                Ok(Ingest::Checkpoint)
            }
            Err(e) => {
                // Stay in re-sync: the next checkpoint gets another try.
                hive_obs::count("replica.follower.resync.failed", 1);
                Err(ReplicaError::Checkpoint(e))
            }
        }
    }

    fn ingest_ops(&mut self, frame: &Opened) -> Result<Ingest> {
        if self.needs_resync() {
            return Ok(Ingest::AwaitingResync);
        }
        if frame.seq > self.next_seq {
            return self.flag_gap(frame.seq);
        }
        let batch: OpsBatch = match parse_payload(frame) {
            Ok(batch) => batch,
            Err(e) => return self.refuse_corrupt(e),
        };
        // The replay runs against a scoped borrow of the server; any
        // disagreement falls through to `flag_divergence` afterwards
        // (which needs `&mut self` again).
        let replayed: std::result::Result<usize, String> = match self.server.as_mut() {
            // Streaming without a server cannot happen by construction;
            // refuse in a typed way rather than panic (lint R2).
            None => Err("streaming with no installed state".to_string()),
            Some(server) => (|| {
                if server.generation() != frame.start_gen {
                    return Err(format!(
                        "frame starts at generation {} but replica is at {}",
                        frame.start_gen,
                        server.generation()
                    ));
                }
                for (i, op) in batch.ops.iter().enumerate() {
                    if let Err(e) = ops::apply(op, server.writer()) {
                        // The leader accepted this op; a rejection here
                        // means the state machines disagree.
                        let label = op.label();
                        return Err(format!(
                            "op {i} ({label}) accepted by leader but refused here: {e}"
                        ));
                    }
                }
                if server.generation() != frame.end_gen {
                    return Err(format!(
                        "frame ends at generation {} but replay reached {}",
                        frame.end_gen,
                        server.generation()
                    ));
                }
                // The classified delta stream is the cross-check: the
                // replica's own journal for this window must match the
                // leader's bit-for-bit.
                if let Some(mine) = server.hive().db().deltas_since(frame.start_gen) {
                    if mine != batch.deltas {
                        return Err(format!(
                            "journaled delta stream diverges ({} local vs {} shipped)",
                            mine.len(),
                            batch.deltas.len()
                        ));
                    }
                }
                server.publish();
                Ok(batch.ops.len())
            })(),
        };
        match replayed {
            Ok(n) => {
                self.next_seq = frame.seq + 1;
                self.frames_since_checkpoint += 1;
                hive_obs::count("replica.follower.apply.frames", 1);
                hive_obs::count("replica.follower.apply.ops", n as u64);
                Ok(Ingest::Applied { ops: n })
            }
            Err(detail) => self.flag_divergence(frame.seq, detail),
        }
    }

    fn refuse_corrupt(&mut self, e: ReplicaError) -> Result<Ingest> {
        hive_obs::count("replica.follower.corrupt", 1);
        self.state = FollowerState::NeedsResync { reason: format!("corrupt frame: {e}") };
        Err(e)
    }

    fn flag_gap(&mut self, got: u64) -> Result<Ingest> {
        let expected = self.next_seq;
        hive_obs::count("replica.follower.gap", 1);
        self.state = FollowerState::NeedsResync {
            reason: format!("gap: expected seq {expected}, got {got}"),
        };
        Err(ReplicaError::Gap { expected, got })
    }

    fn flag_divergence(&mut self, seq: u64, detail: String) -> Result<Ingest> {
        hive_obs::count("replica.follower.diverged", 1);
        self.state = FollowerState::Broken { reason: detail.clone() };
        Err(ReplicaError::Diverged { seq, detail })
    }
}

/// Parses a frame's payload: the only place a follower reads past a
/// header.
fn parse_payload<T: FromJson>(frame: &Opened) -> Result<T> {
    hive_obs::count("replica.follower.payload_decodes", 1);
    frame.parse()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, FramePayload};
    use crate::{Leader, ReplOp};
    use hive_core::sim::{SimConfig, WorldBuilder};
    use hive_json::{Json, ToJson};
    use hive_obs::Level;

    fn leader() -> Leader {
        let db =
            WorldBuilder::new(SimConfig { seed: 4, users: 8, ..SimConfig::small() }).build().db;
        Leader::new(db, 100)
    }

    /// Delivers the leader's next sealed frames to the follower.
    fn ship(leader: &mut Leader, follower: &mut Follower, checkpoint: bool) -> Vec<Result<Ingest>> {
        let frames = leader.seal_frames(checkpoint);
        frames.iter().map(|f| follower.ingest(&frame::encode(f))).collect()
    }

    fn counter(name: &str) -> u64 {
        hive_obs::snapshot().counter(name)
    }

    #[test]
    fn resync_install_parses_the_checkpoint_payload() {
        hive_obs::with_level(Level::Counts, || {
            hive_obs::reset();
            let mut leader = leader();
            let mut follower = Follower::blank(0);
            assert_eq!(ship(&mut leader, &mut follower, true), vec![Ok(Ingest::Checkpoint)]);
            assert!(follower.is_streaming());
            assert_eq!(counter("replica.follower.resync.install"), 1);
            assert_eq!(counter("replica.follower.payload_decodes"), 1);
            assert_eq!(counter("replica.follower.checkpoint.verified"), 0);
            hive_obs::reset();
        });
    }

    #[test]
    fn in_stream_checkpoint_is_judged_from_its_header() {
        hive_obs::with_level(Level::Counts, || {
            let mut leader = leader();
            let mut follower = Follower::blank(0);
            ship(&mut leader, &mut follower, true);
            hive_obs::reset();
            leader.apply(ReplOp::AdvanceClock(1)).expect("the clock always advances");
            // One ops frame, replayed, then an in-stream checkpoint.
            let outcomes = ship(&mut leader, &mut follower, true);
            assert_eq!(outcomes, vec![Ok(Ingest::Applied { ops: 1 }), Ok(Ingest::Checkpoint)]);
            assert_eq!(counter("replica.follower.checkpoint.verified"), 1);
            assert_eq!(counter("replica.follower.payload_decodes"), 1, "the ops frame only");
            assert_eq!(follower.next_seq(), leader.next_seq());
            hive_obs::reset();
        });
    }

    /// The wire a version-1 build sent: the frame JSON, escaped into a
    /// `{"crc","body"}` envelope with the checksum over the body.
    fn version_1_wire(frame: &Frame) -> String {
        let FramePayload::Ops(batch) = &frame.payload else {
            panic!("an ops frame");
        };
        let body = Json::Obj(vec![
            ("version".to_string(), Json::Int(1)),
            ("seq".to_string(), frame.seq.to_json()),
            ("start_gen".to_string(), frame.start_gen.to_json()),
            ("end_gen".to_string(), frame.end_gen.to_json()),
            ("payload".to_string(), Json::Obj(vec![("Ops".to_string(), batch.to_json())])),
        ])
        .render();
        Json::Obj(vec![
            ("crc".to_string(), Json::Str(format!("{:016x}", frame::fnv1a(body.as_bytes())))),
            ("body".to_string(), Json::Str(body)),
        ])
        .render()
    }

    #[test]
    fn version_1_wire_is_refused_as_corrupt() {
        hive_obs::with_level(Level::Counts, || {
            let mut leader = leader();
            let mut follower = Follower::blank(0);
            ship(&mut leader, &mut follower, true);
            let published = follower.reader().expect("booted").epoch().generation();
            hive_obs::reset();
            leader.apply(ReplOp::AdvanceClock(1)).expect("the clock always advances");
            let frames = leader.seal_frames(false);
            let [ops_frame] = frames.as_slice() else {
                panic!("one ops frame sealed");
            };
            let err = follower.ingest(&version_1_wire(ops_frame)).expect_err("v1 is refused");
            assert!(matches!(err, ReplicaError::Corrupt(_)), "got {err:?}");
            assert!(follower.needs_resync());
            assert_eq!(counter("replica.follower.corrupt"), 1);
            assert_eq!(counter("replica.follower.payload_decodes"), 0);
            let now = follower.reader().expect("booted").epoch().generation();
            assert_eq!(now, published, "a refused frame publishes nothing");
            hive_obs::reset();
        });
    }
}
