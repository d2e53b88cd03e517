//! N-reader × 1-writer serving soak with a snapshot-consistency
//! oracle.
//!
//! The writer task drives the usual seed-generated workload through
//! [`HiveServer::writer`] and publishes an epoch every few steps;
//! reader tasks concurrently pull epochs off their
//! [`ReadHandle`](hive_core::ReadHandle)s and record a fixed query
//! battery per epoch they observe. Concurrency runs through
//! `hive-par`'s [`hive_par::par_tasks`] (lint R6: no raw threads), with
//! [`hive_par::force_workers`] so the tasks genuinely overlap even on a
//! single-core host.
//!
//! The oracle is checked serially afterwards, in two layers:
//!
//! 1. **Snapshot consistency** — every battery a reader recorded
//!    against some epoch must be bit-identical to the battery of a
//!    *cold* platform rebuilt from that epoch's own database snapshot
//!    ([`Epoch::rebuild`]): whatever interleaving happened, each read
//!    saw exactly the state a serial replay at that generation would
//!    produce. Published-but-unobserved epochs are checked too.
//! 2. **Epoch ordering** — the sequence of epochs each reader observed
//!    must be monotone in publish seq and database generation (the
//!    slot never goes backwards), and the writer's published sequence
//!    must be strictly increasing.
//!
//! Correctness never depends on the scheduler: any interleaving of
//! reads and publishes must satisfy both layers, so a violation is a
//! real serving-layer bug, not flakiness.

use crate::answers::{probe_users, Fingerprint};
use crate::workload::{self, WorkloadStats};
use hive_core::clock::Timestamp;
use hive_core::discover::DiscoverConfig;
use hive_core::serve::{Epoch, HiveServer};
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_rng::Rng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Serving-soak parameters; everything else derives from `seed`.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Master seed: world and workload.
    pub seed: u64,
    /// Writer workload steps.
    pub steps: usize,
    /// Concurrent reader tasks.
    pub readers: usize,
    /// Publish an epoch every this many writer steps.
    pub publish_every: usize,
    /// Researchers in the generated world (min 6).
    pub users: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { seed: 42, steps: 200, readers: 3, publish_every: 10, users: 14 }
    }
}

/// Outcome of one serving soak.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// The seed that produced this report.
    pub seed: u64,
    /// Writer steps executed.
    pub steps_run: usize,
    /// Epochs published (including the boot epoch).
    pub publishes: usize,
    /// Epoch reads performed across all readers.
    pub reads: usize,
    /// Workload operations the writer applied.
    pub ops_applied: usize,
    /// Workload operations the platform rejected (typed errors).
    pub ops_rejected: usize,
    /// Distinct epochs verified against a cold serial replay.
    pub epochs_checked: usize,
    /// All violations, in discovery order.
    pub violations: Vec<String>,
}

impl ServeReport {
    /// True when the snapshot-consistency oracle held everywhere.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "serve soak seed={}: {} writer steps ({} ops applied, {} rejected), {} epochs \
             published, {} reads across readers, {} distinct epochs replay-checked\n",
            self.seed,
            self.steps_run,
            self.ops_applied,
            self.ops_rejected,
            self.publishes,
            self.reads,
            self.epochs_checked,
        );
        if self.ok() {
            out.push_str("OK: every read bit-identical to serial replay at its epoch");
        } else {
            out.push_str(&format!("FAILED: {} violation(s)", self.violations.len()));
            for v in &self.violations {
                out.push('\n');
                out.push_str(&format!("  {v}"));
            }
        }
        out
    }
}

/// One epoch observation: the epoch a reader (or the writer) held and
/// the battery it computed against it.
type Sample = (Arc<Epoch>, Fingerprint);

enum TaskOut {
    Writer { epochs: Vec<Arc<Epoch>>, stats: WorkloadStats },
    Reader { samples: Vec<Sample>, torn: Vec<String> },
    Empty,
}

/// A fixed, deterministic battery of four cheap reads over one epoch,
/// digested through [`crate::answers`] so comparison is bit-exact;
/// everything it touches (search, similarity, feeds, trends) goes
/// through the epoch's frozen knowledge network and database snapshot.
fn epoch_battery(epoch: &Epoch) -> Fingerprint {
    let db = epoch.db();
    let mut fp = Fingerprint::default();
    fp.push("generation", &epoch.generation());
    fp.push("counts", &[db.user_ids().len(), db.paper_ids().len(), db.activity_log().len()][..]);
    fp.push("now", &db.now());
    for u in probe_users(db) {
        let iri = u.iri();
        fp.push(format!("similar:{iri}"), &epoch.similar_peers(u, 5));
        let query = "tensor stream community detection";
        fp.push(format!("search:{iri}"), &epoch.search(u, query, DiscoverConfig::default()));
        fp.push(format!("digest:{iri}"), &epoch.digest(u, Timestamp(0)));
    }
    fp.push("trending", &epoch.trending_sessions(Timestamp(0), db.now(), 5));
    fp
}

fn unpoison_take<T>(slot: &Mutex<Option<T>>) -> Option<T> {
    match slot.lock() {
        Ok(mut g) => g.take(),
        Err(poisoned) => poisoned.into_inner().take(),
    }
}

/// Runs the N-reader × 1-writer soak and verifies the
/// snapshot-consistency oracle.
// lint:root(determinism)
pub fn serve_soak(cfg: ServeConfig) -> ServeReport {
    let mut report = ServeReport { seed: cfg.seed, ..ServeReport::default() };
    let mut root = Rng::seed_from_u64(cfg.seed);
    let world_seed = root.next_u64();
    let workload_rng = root.fork();
    let sim = SimConfig {
        seed: world_seed,
        users: cfg.users.max(6),
        topics: 4,
        conferences: 2,
        sessions_per_conf: 4,
        papers_per_conf: 8,
        ..SimConfig::small()
    };
    let world = WorldBuilder::new(sim).build();
    let server = HiveServer::new(world.db);
    let handle = server.reader();
    let publish_every = cfg.publish_every.max(1);
    let sample_cap = cfg.steps.saturating_mul(50).max(64);
    let writer_slot: Mutex<Option<(HiveServer, Rng)>> = Mutex::new(Some((server, workload_rng)));
    let done = AtomicBool::new(false);
    let roles: Vec<usize> = (0..=cfg.readers.max(1)).collect();
    let outs: Vec<TaskOut> = hive_par::force_workers(roles.len(), || {
        hive_par::par_tasks(&roles, |_, &role| {
            if role == 0 {
                let Some((mut server, mut rng)) = unpoison_take(&writer_slot) else {
                    return TaskOut::Empty;
                };
                let mut stats = WorkloadStats::default();
                let mut epochs = vec![server.current()];
                for step in 0..cfg.steps {
                    workload::step(server.writer(), &mut rng, step, &mut stats);
                    if (step + 1) % publish_every == 0 {
                        epochs.push(server.publish());
                    }
                }
                // Flush any unpublished tail; a no-op publish returns
                // the already-recorded epoch, so only new seqs append.
                let last = server.publish();
                if epochs.last().map(|e| e.seq()) != Some(last.seq()) {
                    epochs.push(last);
                }
                done.store(true, Ordering::Release);
                TaskOut::Writer { epochs, stats }
            } else {
                let mut samples: Vec<Sample> = Vec::new();
                let mut torn = Vec::new();
                while !done.load(Ordering::Acquire) && samples.len() < sample_cap {
                    let epoch = handle.epoch();
                    let battery = epoch_battery(&epoch);
                    if samples.is_empty() {
                        // A pinned epoch must answer identically on
                        // repeated calls — torn interior state would
                        // show up as two different batteries.
                        let again = epoch_battery(&epoch);
                        if again != battery {
                            torn.push(format!(
                                "reader {role}: repeated battery on epoch seq={} diverged",
                                epoch.seq()
                            ));
                        }
                    }
                    samples.push((epoch, battery));
                }
                // One final read so every reader also observes the
                // writer's last published epoch.
                let epoch = handle.epoch();
                let battery = epoch_battery(&epoch);
                samples.push((epoch, battery));
                TaskOut::Reader { samples, torn }
            }
        })
    });
    report.steps_run = cfg.steps;
    // ---- serial verification ------------------------------------------
    // Cold replay per distinct publish seq, computed once and compared
    // against every observation of that epoch.
    let mut expected: BTreeMap<u64, Fingerprint> = BTreeMap::new();
    let mut check = |epoch: &Arc<Epoch>, got: &Fingerprint, who: &str, report: &mut ServeReport| {
        let want = expected.entry(epoch.seq()).or_insert_with(|| {
            report.epochs_checked += 1;
            epoch_battery(&Epoch::rebuild(Arc::new(epoch.db().clone())))
        });
        for d in want.diff(got) {
            report.violations.push(format!(
                "{who}: epoch seq={} gen={} diverges from serial replay: {d}",
                epoch.seq(),
                epoch.generation()
            ));
        }
    };
    for (task, out) in outs.into_iter().enumerate() {
        match out {
            TaskOut::Writer { epochs, stats } => {
                report.publishes = epochs.len();
                report.ops_applied = stats.applied;
                report.ops_rejected = stats.rejected;
                let mut prev_seq: Option<u64> = None;
                for epoch in &epochs {
                    if let Some(p) = prev_seq {
                        if epoch.seq() <= p {
                            report.violations.push(format!(
                                "writer: published seq {} after {} (not strictly increasing)",
                                epoch.seq(),
                                p
                            ));
                        }
                    }
                    prev_seq = Some(epoch.seq());
                    let battery = epoch_battery(epoch);
                    check(epoch, &battery, "writer", &mut report);
                }
            }
            TaskOut::Reader { samples, torn } => {
                report.violations.extend(torn);
                report.reads += samples.len();
                let mut prev: Option<(u64, u64)> = None;
                for (epoch, battery) in &samples {
                    if let Some((ps, pg)) = prev {
                        if epoch.seq() < ps || epoch.generation() < pg {
                            report.violations.push(format!(
                                "reader {task}: epoch went backwards (seq {} gen {} after seq {ps} gen {pg})",
                                epoch.seq(),
                                epoch.generation()
                            ));
                        }
                    }
                    prev = Some((epoch.seq(), epoch.generation()));
                    check(epoch, battery, &format!("reader {task}"), &mut report);
                }
            }
            TaskOut::Empty => {
                report.violations.push(format!("task {task}: writer state already taken"));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_soak_small_run_is_clean() {
        let report = serve_soak(ServeConfig {
            seed: 7,
            steps: 30,
            readers: 2,
            publish_every: 6,
            users: 10,
        });
        assert!(report.ok(), "{}", report.render());
        assert!(report.publishes >= 2, "boot + at least one publish");
        assert!(report.reads >= 2, "every reader reads at least once");
        assert_eq!(report.epochs_checked, report.publishes);
    }
}
