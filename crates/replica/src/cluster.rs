//! Cluster orchestration: one leader, N follower slots, one faulty
//! channel per slot, plus crash/restart and leader handoff.

use crate::follower::{Follower, Ingest};
use crate::frame;
use crate::leader::Leader;
use crate::ops::ReplOp;
use crate::transport::{FaultPlan, Transport, TransportStats};
use crate::{ReplicaError, Result};
use hive_core::serve::ReadHandle;
use hive_core::{Hive, HiveDb};
use hive_rng::Rng;

/// Cluster-wide knobs.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Seed for the per-follower transport fault streams.
    pub seed: u64,
    /// Emit a checkpoint frame every this many ops frames.
    pub checkpoint_every: u64,
    /// Fault probabilities applied to every follower's channel.
    pub faults: FaultPlan,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { seed: 42, checkpoint_every: 8, faults: FaultPlan::none() }
    }
}

/// Cumulative protocol counters across all followers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Ops frames applied cleanly by followers.
    pub frames_applied: u64,
    /// Checkpoint installs (bootstrap + re-sync): checkpoints taken
    /// by a follower that was waiting for one.
    pub checkpoints_installed: u64,
    /// In-stream checkpoints a streaming follower verified against its
    /// own generation.
    pub checkpoints_verified: u64,
    /// Duplicated frames ignored.
    pub duplicates_ignored: u64,
    /// Ops frames dropped while a follower awaited re-sync.
    pub frames_awaiting_resync: u64,
    /// Typed refusals: gaps detected.
    pub gaps: u64,
    /// Typed refusals: corrupt frames.
    pub corrupt_frames: u64,
    /// Typed refusals: anything else (divergence, broken, install).
    pub other_refusals: u64,
    /// Re-sync checkpoints the leader emitted on demand.
    pub resync_checkpoints: u64,
    /// Leader handoffs performed.
    pub promotions: u64,
}

struct FollowerSlot {
    follower: Follower,
    transport: Transport,
    down: bool,
}

/// One leader plus N followers over fault-injected channels.
///
/// The driving loop is: [`Cluster::apply`] ops, then [`Cluster::commit`]
/// to seal them into frames, ship through every channel, and let each
/// follower drain + ingest. Followers that detect gaps or corruption
/// flip to re-sync; the next commit broadcasts an on-demand checkpoint
/// frame (through the same faulty channels — a lost checkpoint just
/// means another round). [`Cluster::heal`] runs bounded extra commit
/// rounds until every live follower streams again.
pub struct Cluster {
    leader: Leader,
    slots: Vec<FollowerSlot>,
    cfg: ClusterConfig,
    stats: ClusterStats,
}

impl Cluster {
    /// Boots a leader over `db` and `followers` blank replicas, then
    /// broadcasts the bootstrap checkpoint over clean channels (a boot
    /// handshake; faults start with the first real commit).
    pub fn new(db: HiveDb, followers: usize, cfg: ClusterConfig) -> Cluster {
        let mut leader = Leader::new(db, cfg.checkpoint_every);
        let mut seed_rng = Rng::seed_from_u64(cfg.seed);
        let mut slots: Vec<FollowerSlot> = (0..followers)
            .map(|id| FollowerSlot {
                follower: Follower::blank(id),
                transport: Transport::new(seed_rng.next_u64(), cfg.faults),
                down: false,
            })
            .collect();
        let mut stats = ClusterStats::default();
        let boot = leader.seal_frames(true);
        for frame in &boot {
            let wire = frame::encode(frame);
            for slot in &mut slots {
                // Bootstrap bypasses the fault plan: a deployment that
                // cannot even hand its first checkpoint over is not a
                // replication scenario.
                let resyncing = slot.follower.needs_resync();
                tally(&mut stats, resyncing, slot.follower.ingest(&wire));
            }
        }
        Cluster { leader, slots, cfg, stats }
    }

    /// Applies one operation on the leader.
    pub fn apply(&mut self, op: ReplOp) -> Result<()> {
        self.leader.apply(op)
    }

    /// Seals pending ops, ships the resulting frames through every
    /// live channel, and lets every live follower ingest what arrived.
    /// When any live follower needs re-sync, the sealed batch also
    /// carries an on-demand checkpoint frame.
    pub fn commit(&mut self) {
        // A follower wants a checkpoint when it said so (gap/corrupt)
        // — or when it is streaming but behind the sealed log. The
        // leader retains no old frames, so a frame lost in the tail
        // (nothing after it to expose the gap) can only be healed by
        // a state transfer.
        let leader_seq = self.leader.next_seq();
        let resync_wanted = self.slots.iter().any(|s| {
            !s.down
                && (s.follower.needs_resync()
                    || (s.follower.is_streaming() && s.follower.next_seq() < leader_seq))
        });
        if resync_wanted {
            self.stats.resync_checkpoints += 1;
            hive_obs::count("replica.cluster.resync_checkpoint", 1);
        }
        let frames = self.leader.seal_frames(resync_wanted);
        let wires: Vec<String> = frames.iter().map(frame::encode).collect();
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if slot.down {
                // Frames shipped at a crashed follower are simply lost;
                // the restart path re-syncs from a checkpoint anyway.
                continue;
            }
            for wire in &wires {
                slot.transport.send(wire);
            }
            for arrived in slot.transport.drain() {
                let resyncing = slot.follower.needs_resync();
                tally(&mut self.stats, resyncing, slot.follower.ingest(&arrived));
            }
            let lag = slot.follower.lag(self.leader.next_seq());
            hive_obs::gauge_set(&format!("replica.follower.{idx}.lag"), lag);
            hive_obs::gauge_max("replica.lag.max", lag);
        }
    }

    /// Runs up to `max_rounds` empty commits (each forcing a re-sync
    /// checkpoint when needed) until every live follower streams and
    /// is caught up. Returns whether that state was reached — under
    /// fault injection a checkpoint can be lost repeatedly, so the
    /// bound keeps the loop finite and the caller decides what a
    /// `false` means.
    pub fn heal(&mut self, max_rounds: usize) -> bool {
        for _ in 0..max_rounds {
            if self.all_caught_up() {
                return true;
            }
            self.commit();
        }
        self.all_caught_up()
    }

    /// True when the leader has nothing pending and every live
    /// follower is streaming at its next sequence number. Pending
    /// (unsealed) leader ops count as lag: they are state the
    /// followers cannot have seen yet.
    pub fn all_caught_up(&self) -> bool {
        self.leader.pending_ops() == 0
            && self.slots.iter().filter(|s| !s.down).all(|s| {
                s.follower.is_streaming() && s.follower.next_seq() == self.leader.next_seq()
            })
    }

    /// Simulates a follower crash: all replica state and in-flight
    /// frames vanish. The slot stays down (frames shipped meanwhile
    /// are lost) until [`Cluster::restart_follower`].
    pub fn crash_follower(&mut self, idx: usize) -> Result<()> {
        let slot = self.slots.get_mut(idx).ok_or(ReplicaError::NoSuchFollower(idx))?;
        slot.follower = Follower::blank(idx);
        slot.transport.clear();
        slot.down = true;
        hive_obs::count("replica.cluster.crash", 1);
        Ok(())
    }

    /// Brings a crashed follower back as a blank replica; the next
    /// commit's re-sync checkpoint re-bootstraps it.
    pub fn restart_follower(&mut self, idx: usize) -> Result<()> {
        let slot = self.slots.get_mut(idx).ok_or(ReplicaError::NoSuchFollower(idx))?;
        slot.down = false;
        hive_obs::count("replica.cluster.restart", 1);
        Ok(())
    }

    /// Leader handoff: the caught-up follower `idx` takes over the log
    /// (its next frame continues the sequence numbers) and the old
    /// leader vanishes, as in a leader crash followed by failover. The
    /// promoted instance's [`ReadHandle`]s remain valid across the
    /// transition. Refuses with [`ReplicaError::NotCaughtUp`] unless
    /// the follower is streaming at exactly the leader's next sequence.
    pub fn promote(&mut self, idx: usize) -> Result<()> {
        if idx >= self.slots.len() {
            return Err(ReplicaError::NoSuchFollower(idx));
        }
        let leader_seq = self.leader.next_seq();
        let f = &self.slots[idx].follower;
        if self.slots[idx].down || !f.is_streaming() || f.next_seq() != leader_seq {
            return Err(ReplicaError::NotCaughtUp {
                leader: leader_seq,
                follower: f.next_seq(),
            });
        }
        let slot = self.slots.remove(idx);
        let cadence = slot.follower.frames_since_checkpoint();
        let Some(server) = slot.follower.into_server() else {
            // Streaming implies an installed server; refuse typed-ly
            // if the invariant ever breaks rather than panic.
            return Err(ReplicaError::NotCaughtUp { leader: leader_seq, follower: 0 });
        };
        self.leader =
            Leader::from_server(server, leader_seq, self.cfg.checkpoint_every, cadence);
        self.stats.promotions += 1;
        hive_obs::count("replica.cluster.promote", 1);
        Ok(())
    }

    /// The current leader.
    pub fn leader(&self) -> &Leader {
        &self.leader
    }

    /// Read access to the leader's facade (for oracles).
    pub fn leader_hive(&self) -> &Hive {
        self.leader.hive()
    }

    /// Live follower count (crashed slots included — they still exist).
    pub fn follower_count(&self) -> usize {
        self.slots.len()
    }

    /// The follower in slot `idx`.
    pub fn follower(&self, idx: usize) -> Option<&Follower> {
        self.slots.get(idx).map(|s| &s.follower)
    }

    /// A read handle over follower `idx`'s published epochs.
    pub fn follower_reader(&self, idx: usize) -> Option<ReadHandle> {
        self.slots.get(idx).and_then(|s| s.follower.reader())
    }

    /// Channel statistics for follower `idx`.
    pub fn transport_stats(&self, idx: usize) -> Option<TransportStats> {
        self.slots.get(idx).map(|s| s.transport.stats())
    }

    /// Cumulative protocol counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }
}

/// Counts one ingest outcome. `Ingest::Checkpoint` means an install or
/// a verification; `resyncing` (the follower's state before the ingest)
/// tells them apart.
fn tally(stats: &mut ClusterStats, resyncing: bool, outcome: Result<Ingest>) {
    match outcome {
        Ok(Ingest::Applied { .. }) => stats.frames_applied += 1,
        Ok(Ingest::Checkpoint) if resyncing => stats.checkpoints_installed += 1,
        Ok(Ingest::Checkpoint) => stats.checkpoints_verified += 1,
        Ok(Ingest::Duplicate) => stats.duplicates_ignored += 1,
        Ok(Ingest::AwaitingResync) => stats.frames_awaiting_resync += 1,
        Err(ReplicaError::Gap { .. }) => stats.gaps += 1,
        Err(ReplicaError::Corrupt(_)) => stats.corrupt_frames += 1,
        Err(_) => stats.other_refusals += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_core::sim::{SimConfig, WorldBuilder};

    #[test]
    fn checkpoint_installs_and_verifications_are_counted_apart() {
        let db =
            WorldBuilder::new(SimConfig { seed: 3, users: 8, ..SimConfig::small() }).build().db;
        let (followers, every, commits) = (2u64, 4u64, 13u64);
        let cfg = ClusterConfig { seed: 3, checkpoint_every: every, faults: FaultPlan::none() };
        let mut cluster = Cluster::new(db, followers as usize, cfg);
        for _ in 0..commits {
            cluster.apply(ReplOp::AdvanceClock(1)).expect("the clock always advances");
            cluster.commit();
        }
        let stats = cluster.stats();
        assert_eq!(stats.frames_applied, followers * commits);
        // The bootstrap is the only install; every cadence checkpoint
        // reaches a streaming follower and is verified.
        assert_eq!(stats.checkpoints_installed, followers);
        assert_eq!(stats.checkpoints_verified, followers * (commits / every));
        assert_eq!(stats.resync_checkpoints, 0);
    }

    #[test]
    fn each_follower_reports_its_own_lag() {
        let db =
            WorldBuilder::new(SimConfig { seed: 3, users: 8, ..SimConfig::small() }).build().db;
        let cfg = ClusterConfig { seed: 5, checkpoint_every: 8, faults: FaultPlan::drops(0.5) };
        let mut cluster = Cluster::new(db, 2, cfg);
        let mut commits_with_differing_lags = 0;
        hive_obs::with_level(hive_obs::Level::Counts, || {
            hive_obs::reset();
            for _ in 0..24 {
                cluster.apply(ReplOp::AdvanceClock(1)).expect("the clock always advances");
                cluster.commit();
                let snap = hive_obs::snapshot();
                let next_seq = cluster.leader().next_seq();
                let lags: Vec<u64> = (0..2)
                    .map(|i| cluster.follower(i).expect("two followers").lag(next_seq))
                    .collect();
                for (i, lag) in lags.iter().enumerate() {
                    assert_eq!(snap.gauge(&format!("replica.follower.{i}.lag")), *lag);
                }
                assert!(snap.gauge("replica.lag.max") >= lags[0].max(lags[1]));
                if lags[0] != lags[1] {
                    commits_with_differing_lags += 1;
                }
            }
            hive_obs::reset();
        });
        assert!(commits_with_differing_lags > 0, "the drops never split the followers' lags");
    }
}
