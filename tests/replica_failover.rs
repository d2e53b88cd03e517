//! Replication failover properties: leader-vs-follower fingerprints
//! are bit-identical at every checkpoint, a follower crash/restart
//! mid-stream converges back, gap detection triggers a snapshot
//! re-sync, and a promoted follower continues the log exactly like a
//! leader that never failed.

use hive_core::sim::{SimConfig, WorldBuilder};
use hive_replica::{Cluster, ClusterConfig, FaultPlan};
use hive_rng::Rng;
use hive_sim_harness::oracle::fingerprint;
use hive_sim_harness::{replica_soak, FaultMenu, ReplicaSoakConfig};

#[test]
fn fingerprints_bit_identical_at_every_checkpoint_across_seeds() {
    // Acceptance bar: ≥ 3 seeds × ≥ 200 steps under full fault
    // injection, with a mid-soak crash/restart and an end-of-soak
    // promotion, and zero fingerprint divergences anywhere.
    for seed in [41, 42, 43] {
        let report = replica_soak(ReplicaSoakConfig {
            seed,
            steps: 200,
            followers: 2,
            faults: FaultMenu::All,
            crash_at: 70,
            promote_at_end: true,
            ..ReplicaSoakConfig::default()
        });
        assert!(report.ok(), "{}", report.render());
        assert!(
            report.fingerprint_checks >= 20,
            "seed {seed}: the oracle must fire at checkpoints, got {}",
            report.fingerprint_checks
        );
        assert!(report.promoted, "seed {seed}: promotion must happen");
    }
}

#[test]
fn crash_restart_mid_stream_converges() {
    let report = replica_soak(ReplicaSoakConfig {
        seed: 7,
        steps: 80,
        followers: 2,
        faults: FaultMenu::None,
        crash_at: 30,
        promote_at_end: false,
        ..ReplicaSoakConfig::default()
    });
    assert!(report.ok(), "{}", report.render());
    // The restarted follower comes back blank, so even on clean
    // channels it must re-bootstrap through a re-sync checkpoint.
    assert!(report.resyncs >= 1, "restart must force a re-sync checkpoint");
}

fn small_world(seed: u64) -> hive_core::HiveDb {
    WorldBuilder::new(SimConfig {
        seed,
        users: 10,
        topics: 4,
        conferences: 2,
        sessions_per_conf: 3,
        papers_per_conf: 6,
        ..SimConfig::small()
    })
    .build()
    .db
}

#[test]
fn gap_detection_triggers_snapshot_resync() {
    // A heavily dropping channel loses ops frames; the follower must
    // detect the sequence gap, refuse typed-ly, and recover through an
    // on-demand checkpoint — ending bit-identical to the leader.
    let mut cluster = Cluster::new(
        small_world(11),
        1,
        ClusterConfig { seed: 11, checkpoint_every: 100, faults: FaultPlan::drops(0.5) },
    );
    let mut rng = Rng::seed_from_u64(11);
    for step in 0..60 {
        for op in hive_replica::synth::step_ops(cluster.leader_hive(), step, &mut rng) {
            let _ = cluster.apply(op);
        }
        cluster.commit();
    }
    assert!(cluster.heal(64), "drops at p=0.5 must still converge within the bound");
    let stats = cluster.stats();
    assert!(stats.gaps > 0, "a dropping channel must produce detected gaps");
    assert!(stats.resync_checkpoints > 0, "gaps must trigger snapshot re-sync");
    let follower = cluster.follower(0).expect("slot 0 exists");
    let fhive = follower.hive().expect("caught-up follower has state");
    assert_eq!(
        fingerprint(cluster.leader_hive()).diff(&fingerprint(fhive)),
        Vec::<String>::new(),
        "re-synced follower must be bit-identical to the leader"
    );
}

#[test]
fn promoted_follower_continues_log_like_a_never_failed_leader() {
    // Two clusters over bit-identical worlds, driven by identical
    // forked op streams. Cluster A promotes follower 0 halfway;
    // cluster B keeps its original leader the whole time. Afterwards
    // both leaders must agree on every frame sequence number and
    // answer the full query battery bit-for-bit — the promoted
    // instance is indistinguishable from a leader that never failed.
    let cfg = ClusterConfig { seed: 99, checkpoint_every: 6, faults: FaultPlan::none() };
    let mut a = Cluster::new(small_world(23), 2, cfg);
    let mut b = Cluster::new(small_world(23), 2, cfg);
    let mut rng_a = Rng::seed_from_u64(555);
    let mut rng_b = Rng::seed_from_u64(555);

    let drive = |c: &mut Cluster, rng: &mut Rng, steps: std::ops::Range<usize>| {
        for step in steps {
            for op in hive_replica::synth::step_ops(c.leader_hive(), step, rng) {
                let _ = c.apply(op);
            }
            c.commit();
        }
    };

    drive(&mut a, &mut rng_a, 0..40);
    drive(&mut b, &mut rng_b, 0..40);
    assert!(a.heal(8) && b.heal(8));
    assert_eq!(a.leader().next_seq(), b.leader().next_seq());

    // Failover in A only.
    a.promote(0).expect("caught-up follower promotes");
    assert_eq!(a.follower_count(), 1, "the promoted slot leaves the follower set");

    drive(&mut a, &mut rng_a, 40..80);
    drive(&mut b, &mut rng_b, 40..80);
    assert!(a.heal(8) && b.heal(8));

    assert_eq!(
        a.leader().next_seq(),
        b.leader().next_seq(),
        "the promoted leader must continue the exact sequence numbering"
    );
    assert_eq!(
        fingerprint(a.leader_hive()).diff(&fingerprint(b.leader_hive())),
        Vec::<String>::new(),
        "promoted-leader state must match the never-failed leader bit-for-bit"
    );
    // And A's surviving follower tracked the promoted leader just as
    // B's followers tracked the original.
    let fa = a.follower(0).and_then(|f| f.hive()).expect("survivor caught up");
    assert_eq!(
        fingerprint(a.leader_hive()).diff(&fingerprint(fa)),
        Vec::<String>::new(),
        "the surviving follower must stay bit-identical under the new leader"
    );
}

#[test]
fn promotion_of_a_lagging_follower_is_refused_typed() {
    let mut cluster = Cluster::new(
        small_world(31),
        1,
        ClusterConfig { seed: 31, checkpoint_every: 8, faults: FaultPlan::none() },
    );
    let mut rng = Rng::seed_from_u64(31);
    for step in 0..10 {
        for op in hive_replica::synth::step_ops(cluster.leader_hive(), step, &mut rng) {
            let _ = cluster.apply(op);
        }
    }
    // Pending ops are sealed at promote time's seq check: the follower
    // has not seen the next commit, so it lags once we commit without
    // shipping (crash its channel by taking it down).
    cluster.crash_follower(0).expect("slot exists");
    cluster.commit();
    cluster.restart_follower(0).expect("slot exists");
    let err = cluster.promote(0).expect_err("a lagging follower must not promote");
    assert!(
        matches!(err, hive_replica::ReplicaError::NotCaughtUp { .. }),
        "want NotCaughtUp, got {err:?}"
    );
    // After healing it is promotable.
    assert!(cluster.heal(8));
    cluster.promote(0).expect("caught-up follower promotes");
}
