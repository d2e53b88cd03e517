//! Tier-1 soak: the deterministic simulation harness must report zero
//! violations — recovery equivalence, fault injection, and differential
//! oracles all hold — for multiple seeds, and every report must be
//! reproducible from its seed alone.

use hive_rng::Rng;
use hive_sim_harness::fault::{self, FaultKind, LoadOutcome};
use hive_sim_harness::{HarnessConfig, SimHarness};

#[test]
fn soak_zero_violations_across_seeds() {
    for seed in [11u64, 23, 47] {
        let cfg = HarnessConfig { seed, steps: 200, crash_points: 5, ..Default::default() };
        let report = SimHarness::new(cfg).run();
        assert!(report.ok(), "seed {seed} violated an oracle:\n{}", report.render());
        assert_eq!(report.steps_run, 200);
        assert_eq!(report.crashes, 5, "all crash points must fire (seed {seed})");
        // Four fault kinds on the platform snapshot at every crash point;
        // every injected corruption must come back as a typed error.
        assert_eq!(
            report.faults_injected + report.faults_skipped,
            5 * FaultKind::ALL.len(),
            "fault accounting (seed {seed})"
        );
        assert!(report.faults_injected > 0, "at least one corruption lands (seed {seed})");
        assert_eq!(
            report.fault_errors, report.faults_injected,
            "every corruption surfaces as a typed error (seed {seed})"
        );
        assert!(report.diff_checks > 0, "differential oracles ran (seed {seed})");
        assert!(report.ops_applied > 0, "workload made progress (seed {seed})");
    }
}

#[test]
fn reports_reproduce_from_seed_alone() {
    let cfg = HarnessConfig { seed: 7, steps: 80, crash_points: 2, ..Default::default() };
    let a = SimHarness::new(cfg).run();
    let b = SimHarness::new(cfg).run();
    assert_eq!(a.render(), b.render(), "same seed, same report");
    let other = SimHarness::new(HarnessConfig { seed: 8, ..cfg }).run();
    assert!(other.ok());
    assert_ne!(
        a.render(),
        other.render(),
        "different seeds drive observably different runs"
    );
}

#[test]
fn every_fault_kind_yields_a_typed_error_directly() {
    // Belt-and-braces outside the harness loop: corrupt a real snapshot
    // with each kind under many rng draws; the loader must reject each
    // one without panicking, and version bumps must carry the found /
    // expected pair.
    let world = hive_core::sim::WorldBuilder::new(hive_core::sim::SimConfig::small()).build();
    let json = world.db.to_json().expect("serializes");
    let mut rng = Rng::seed_from_u64(0xfau64);
    for kind in FaultKind::ALL {
        for _ in 0..8 {
            let Some(bad) = fault::corrupt(&json, kind, &mut rng) else {
                panic!("{} must apply to a full platform snapshot", kind.label());
            };
            match fault::load_platform(&bad) {
                LoadOutcome::Rejected(e) => {
                    if kind.wants_version_error() {
                        assert!(
                            matches!(e, hive_core::HiveError::SnapshotVersion { expected, .. }
                                if expected == hive_core::persist::SNAPSHOT_VERSION),
                            "{}: wrong error: {e}",
                            kind.label()
                        );
                    }
                }
                LoadOutcome::Loaded(_) => {
                    panic!("{}: corrupted snapshot loaded silently", kind.label())
                }
                LoadOutcome::Panicked(msg) => panic!("{}: loader panicked: {msg}", kind.label()),
            }
        }
    }
}
