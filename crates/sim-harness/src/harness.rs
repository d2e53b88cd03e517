//! The soak driver: workload → crash/restore → oracles, all from one
//! seed.

use crate::fault::{self, FaultKind, LoadOutcome};
use crate::oracle;
use crate::workload::{self, WorkloadStats};
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::{Hive, HiveError, PprCache};
use hive_rng::Rng;
use hive_store::StoreError;
use std::fmt;

/// Which oracle family flagged a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckerKind {
    /// Post-restore query battery diverged from the pre-crash one.
    Recovery,
    /// A corrupted snapshot was mishandled (panic or silent load).
    Fault,
    /// The same question answered two ways diverged.
    Differential,
    /// A memo held more than its stated bound.
    Bound,
}

impl CheckerKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CheckerKind::Recovery => "recovery",
            CheckerKind::Fault => "fault",
            CheckerKind::Differential => "differential",
            CheckerKind::Bound => "bound",
        }
    }
}

/// One detected violation; the run seed reproduces it exactly.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workload step at which the violation surfaced.
    pub step: usize,
    /// The oracle family that flagged it.
    pub checker: CheckerKind,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[step {} · {}] {}", self.step, self.checker.label(), self.detail)
    }
}

/// Harness parameters; everything else derives from `seed`.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Master seed: world, workload, fault sites, probe choices.
    pub seed: u64,
    /// Workload steps to run.
    pub steps: usize,
    /// Snapshot/restore crash points, evenly spread over the run.
    pub crash_points: usize,
    /// Researchers in the generated world (min 6).
    pub users: usize,
    /// Run the differential oracles every this many steps (0 = only at
    /// crash points).
    pub diff_every: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig { seed: 42, steps: 120, crash_points: 3, users: 14, diff_every: 25 }
    }
}

/// Outcome of one soak run.
#[derive(Clone, Debug, Default)]
pub struct SoakReport {
    /// The seed that produced this report.
    pub seed: u64,
    /// Steps executed.
    pub steps_run: usize,
    /// Crash/restore cycles performed.
    pub crashes: usize,
    /// Corruptions injected (both platform and store snapshots).
    pub faults_injected: usize,
    /// Corruptions correctly rejected with a typed error.
    pub fault_errors: usize,
    /// Corruption attempts skipped (input too small for the kind).
    pub faults_skipped: usize,
    /// Workload operations the platform accepted.
    pub ops_applied: usize,
    /// Workload operations the platform rejected (typed errors).
    pub ops_rejected: usize,
    /// Differential oracle invocations.
    pub diff_checks: usize,
    /// All violations, in discovery order.
    pub violations: Vec<Violation>,
}

impl SoakReport {
    /// True when every oracle held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "soak seed={}: {} steps, {} crash/restore cycles, {} ops applied ({} rejected), \
             {} faults injected ({} typed rejections, {} skipped), {} differential checks\n",
            self.seed,
            self.steps_run,
            self.crashes,
            self.ops_applied,
            self.ops_rejected,
            self.faults_injected,
            self.fault_errors,
            self.faults_skipped,
            self.diff_checks,
        );
        if self.ok() {
            out.push_str("OK: zero violations across recovery, fault, differential, and bound oracles");
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

/// The deterministic soak harness.
pub struct SimHarness {
    cfg: HarnessConfig,
}

impl SimHarness {
    /// Creates a harness for one configuration.
    pub fn new(cfg: HarnessConfig) -> Self {
        SimHarness { cfg }
    }

    /// Runs the full soak and reports. Observability is reset up front
    /// so a run's `hive_obs::report_text()` reflects exactly this soak
    /// and two equal-seed runs render byte-identical reports.
    pub fn run(&self) -> SoakReport {
        hive_obs::reset();
        let cfg = self.cfg;
        // One master seed fans out into independent streams, so e.g.
        // changing the number of crash points cannot shift the
        // workload's randomness.
        let mut root = Rng::seed_from_u64(cfg.seed);
        let world_seed = root.next_u64();
        let mut workload_rng = root.fork();
        let mut fault_rng = root.fork();
        let mut probe_rng = root.fork();
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
        let mut hive = Hive::new(world.db);
        let mut stats = WorkloadStats::default();
        let mut report = SoakReport { seed: cfg.seed, ..SoakReport::default() };
        let crash_at: Vec<usize> = (1..=cfg.crash_points)
            .map(|i| i * cfg.steps / (cfg.crash_points + 1))
            .collect();
        for step in 0..cfg.steps {
            workload::step(&mut hive, &mut workload_rng, step, &mut stats);
            if cfg.diff_every > 0 && step % cfg.diff_every == cfg.diff_every - 1 {
                self.differential(&hive, step, &mut probe_rng, &mut report);
            }
            if crash_at.contains(&step) {
                hive = self.crash_restore(hive, step, &mut fault_rng, &mut report);
                report.crashes += 1;
            }
        }
        check_bounds(&hive, cfg.steps, &mut report);
        report.steps_run = cfg.steps;
        report.ops_applied = stats.applied;
        report.ops_rejected = stats.rejected;
        report
    }

    fn differential(&self, hive: &Hive, step: usize, rng: &mut Rng, report: &mut SoakReport) {
        let users = hive.db().user_ids();
        if users.len() < 2 {
            return;
        }
        let ai = rng.gen_range(0..users.len());
        let mut bi = rng.gen_range(0..users.len() - 1);
        if bi >= ai {
            bi += 1;
        }
        let (a, b) = (users[ai], users[bi]);
        report.diff_checks += 1;
        for detail in oracle::differential_check(hive, (a, b)) {
            report.violations.push(Violation { step, checker: CheckerKind::Differential, detail });
        }
    }

    /// Snapshot, verify recovery equivalence, then attack the snapshot
    /// with every fault kind. Returns the restored instance (the run
    /// continues on the post-crash deployment, like a real restart).
    fn crash_restore(
        &self,
        hive: Hive,
        step: usize,
        rng: &mut Rng,
        report: &mut SoakReport,
    ) -> Hive {
        let pre = oracle::fingerprint(&hive);
        check_bounds(&hive, step, report);
        let json = match hive.db().to_json() {
            Ok(j) => j,
            Err(e) => {
                report.violations.push(Violation {
                    step,
                    checker: CheckerKind::Recovery,
                    detail: format!("snapshot serialization failed: {e}"),
                });
                return hive;
            }
        };
        // Store-layer snapshot of the relationship export, attacked by
        // the same fault kinds below.
        let store_json = hive.knowledge().to_store(hive.db()).to_json().ok();
        self.inject_faults(&json, store_json.as_deref(), step, rng, report);
        match fault::load_platform(&json) {
            LoadOutcome::Loaded(db) => {
                let restored = Hive::new(*db);
                let post = oracle::fingerprint(&restored);
                for detail in pre.diff(&post) {
                    report.violations.push(Violation {
                        step,
                        checker: CheckerKind::Recovery,
                        detail,
                    });
                }
                restored
            }
            LoadOutcome::Rejected(e) => {
                report.violations.push(Violation {
                    step,
                    checker: CheckerKind::Recovery,
                    detail: format!("pristine snapshot rejected: {e}"),
                });
                hive
            }
            LoadOutcome::Panicked(msg) => {
                report.violations.push(Violation {
                    step,
                    checker: CheckerKind::Recovery,
                    detail: format!("pristine snapshot load panicked: {msg}"),
                });
                hive
            }
        }
    }

    fn inject_faults(
        &self,
        platform_json: &str,
        store_json: Option<&str>,
        step: usize,
        rng: &mut Rng,
        report: &mut SoakReport,
    ) {
        for kind in FaultKind::ALL {
            let platform = attack(report, platform_json, kind, rng, fault::load_platform, |e| {
                matches!(e, HiveError::SnapshotVersion { .. })
            });
            let store = store_json.and_then(|json| {
                attack(report, json, kind, rng, fault::load_store, |e| {
                    matches!(e, StoreError::SnapshotVersion { .. })
                })
            });
            for (layer, problem) in [("platform", platform), ("store", store)] {
                if let Some(problem) = problem {
                    report.violations.push(Violation {
                        step,
                        checker: CheckerKind::Fault,
                        detail: format!("{layer} {}: {problem}", kind.label()),
                    });
                }
            }
        }
    }
}

/// Corrupts one snapshot layer's `json` with `kind` and loads it,
/// counting the attempt in `report`. Returns what the loader got wrong:
/// every corruption must come back as a typed error, and a version bump
/// as one that `is_version_error` recognizes.
fn attack<T, E: fmt::Display>(
    report: &mut SoakReport,
    json: &str,
    kind: FaultKind,
    rng: &mut Rng,
    load: fn(&str) -> LoadOutcome<T, E>,
    is_version_error: fn(&E) -> bool,
) -> Option<String> {
    let Some(bad) = fault::corrupt(json, kind, rng) else {
        report.faults_skipped += 1;
        return None;
    };
    report.faults_injected += 1;
    match load(&bad) {
        LoadOutcome::Rejected(e) if is_version_error(&e) || !kind.wants_version_error() => {
            report.fault_errors += 1;
            None
        }
        LoadOutcome::Rejected(e) => Some(format!("expected a snapshot-version error, got: {e}")),
        LoadOutcome::Loaded(_) => Some("corrupted snapshot loaded without error".to_string()),
        LoadOutcome::Panicked(msg) => Some(format!("loader panicked: {msg}")),
    }
}

/// The stated memo bounds: the PPR memo within [`PprCache::CAP`], and the
/// key-concept memo within one entry per paper, presentation, session
/// and user. Checked after each pre-crash fingerprint, whose searches and
/// peer recommendations fill both memos, and at the end of the run.
fn check_bounds(hive: &Hive, step: usize, report: &mut SoakReport) {
    let memo = hive.ppr().len();
    if memo > PprCache::CAP {
        report.violations.push(Violation {
            step,
            checker: CheckerKind::Bound,
            detail: format!("PPR memo holds {memo} entries, above its cap of {}", PprCache::CAP),
        });
    }
    let concepts = hive.knowledge().key_concept_entries();
    let db = hive.db();
    let resources = db.paper_ids().len()
        + db.presentation_ids().len()
        + db.session_ids().len()
        + db.user_ids().len();
    if concepts > resources {
        report.violations.push(Violation {
            step,
            checker: CheckerKind::Bound,
            detail: format!("key-concept memo holds {concepts} entries for {resources} resources"),
        });
    }
}
