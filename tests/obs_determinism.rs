//! Observability determinism oracles.
//!
//! Two properties, checked end-to-end over the seed-generated workload:
//!
//! 1. **Report determinism** — the same seed driven through a fresh
//!    platform twice renders a byte-identical `hive_obs` report (text
//!    and JSON), crash/restore cycles and differential oracles included.
//! 2. **No observer effect** — running with observability `Off` versus
//!    `Full` yields bit-identical platform state, per the recovery
//!    fingerprint's answer digests. Recording must never branch program
//!    logic.

use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::Hive;
use hive_obs::Level;
use hive_rng::Rng;
use hive_sim_harness::answers::Fingerprint;
use hive_sim_harness::oracle;
use hive_sim_harness::workload::{self, WorkloadStats};
use hive_sim_harness::{HarnessConfig, SimHarness};

/// Drives `steps` workload steps on a fresh seed-built platform at the
/// given obs level; returns the state fingerprint and both report
/// renderings.
fn drive(level: Level, seed: u64, steps: usize) -> (Fingerprint, String, String) {
    hive_obs::with_level(level, || {
        hive_obs::reset();
        let sim = SimConfig { seed, users: 12, ..SimConfig::small() };
        let world = WorldBuilder::new(sim).build();
        let mut hive = Hive::new(world.db);
        let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);
        let mut stats = WorkloadStats::default();
        for s in 0..steps {
            workload::step(&mut hive, &mut rng, s, &mut stats);
        }
        (oracle::fingerprint(&hive), hive_obs::report_text(), hive_obs::report_json())
    })
}

#[test]
fn same_seed_renders_byte_identical_reports() {
    let (fp1, text1, json1) = drive(Level::Full, 7, 120);
    let (fp2, text2, json2) = drive(Level::Full, 7, 120);
    assert!(fp1.diff(&fp2).is_empty(), "same seed must rebuild the same platform");
    assert_eq!(text1, text2, "text report must be byte-identical across fresh platforms");
    assert_eq!(json1, json2, "json report must be byte-identical across fresh platforms");
    assert!(
        text1.contains("calls="),
        "full-level report must carry per-service data:\n{text1}"
    );
}

#[test]
fn full_soak_report_is_deterministic_across_runs() {
    // The soak adds crash/restore cycles and the differential oracles,
    // whose cold rebuilds and view builds record counters of their own.
    let render = || {
        hive_obs::with_level(Level::Full, || {
            let cfg = HarnessConfig { seed: 9, steps: 60, ..HarnessConfig::default() };
            let report = SimHarness::new(cfg).run();
            assert!(report.ok(), "soak must stay violation-free:\n{}", report.render());
            (hive_obs::report_text(), hive_obs::report_json())
        })
    };
    let (text1, json1) = render();
    let (text2, json2) = render();
    assert_eq!(text1, text2);
    assert_eq!(json1, json2);
    assert!(text1.contains("store."), "soak report must include hive-store counters:\n{text1}");
}

#[test]
fn observability_is_free_of_observer_effects() {
    let (fp_off, text_off, _) = drive(Level::Off, 23, 120);
    let (fp_full, text_full, _) = drive(Level::Full, 23, 120);
    let diff = fp_off.diff(&fp_full);
    assert!(diff.is_empty(), "obs-off vs obs-full state diverged: {diff:?}");
    assert!(text_off.contains("(no data recorded)"), "off level must record nothing:\n{text_off}");
    assert!(!text_full.contains("(no data recorded)"));
}

#[test]
fn counts_level_skips_spans_but_keeps_counters() {
    let (_, text, _) = drive(Level::Counts, 31, 60);
    assert!(text.contains("calls="), "counts level must keep service call counts:\n{text}");
    assert!(!text.contains("hist="), "counts level must not record histograms:\n{text}");
}
