//! Concurrent-serving properties of the epoch snapshot layer:
//! readers pinned to an epoch see no torn state, epoch generations are
//! monotone, a long-lived reader on an old epoch still answers
//! correctly after many writes, and the N-reader × 1-writer soak holds
//! the snapshot-consistency oracle across seeds.

use hive_core::serve::{Epoch, HiveServer};
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_replica::{Cluster, ClusterConfig, FaultPlan};
use hive_rng::Rng;
use hive_sim_harness::oracle::fingerprint;
use hive_sim_harness::{serve_soak, ServeConfig};
use std::sync::Arc;

fn server() -> HiveServer {
    HiveServer::new(WorldBuilder::new(SimConfig::small()).build().db)
}

#[test]
fn pinned_epoch_sees_no_torn_state_across_repeated_calls() {
    let mut s = server();
    let pinned = s.current();
    let before = fingerprint(&pinned);
    // Interleave heavy writes (unpublished and published) with repeated
    // reads of the pinned epoch: every call must answer identically.
    let users = s.hive().db().user_ids();
    for i in 0..8 {
        s.writer().advance_clock(3);
        s.writer().follow(users[i % users.len()], users[(i + 3) % users.len()]).ok();
        if i % 3 == 2 {
            s.publish();
        }
        assert_eq!(fingerprint(&pinned), before, "pinned epoch tore at write {i}");
    }
}

#[test]
fn epoch_generations_and_seqs_are_monotone() {
    let mut s = server();
    let reader = s.reader();
    let users = s.hive().db().user_ids();
    let paper = s.hive().db().paper_ids()[0];
    let mut last_seq = s.current().seq();
    let mut last_gen = s.current().generation();
    for i in 0..12 {
        s.writer().advance_clock(1);
        s.writer().view_paper(users[i % users.len()], paper).ok();
        let e = s.publish();
        assert!(e.seq() > last_seq, "publish seq must strictly increase");
        assert!(e.generation() > last_gen, "mutations must advance the generation");
        last_seq = e.seq();
        last_gen = e.generation();
        let seen = reader.epoch();
        assert_eq!(seen.seq(), last_seq, "reader sees the latest publish");
    }
}

#[test]
fn long_lived_reader_on_old_epoch_answers_like_a_serial_replay() {
    let mut s = server();
    let reader = s.reader();
    let old = reader.epoch();
    let old_battery = fingerprint(&old);
    let users = s.hive().db().user_ids();
    let sessions = s.hive().db().session_ids();
    for i in 0..60 {
        s.writer().advance_clock(2);
        match i % 3 {
            0 => {
                s.writer().follow(users[i % users.len()], users[(i + 5) % users.len()]).ok();
            }
            1 => {
                s.writer().check_in(users[i % users.len()], sessions[i % sessions.len()]).ok();
            }
            _ => {
                let papers = s.hive().db().paper_ids();
                s.writer().view_paper(users[i % users.len()], papers[i % papers.len()]).ok();
            }
        }
        if i % 10 == 9 {
            s.publish();
        }
    }
    assert!(
        reader.current_generation() > old.generation(),
        "the slot moved on while the old epoch stayed pinned"
    );
    // The old epoch answers exactly as it did before the writes...
    assert_eq!(fingerprint(&old), old_battery);
    // ...and exactly as a cold platform rebuilt from its own snapshot.
    let cold = Epoch::rebuild(Arc::new(old.db().clone()));
    assert_eq!(fingerprint(&old), fingerprint(&cold));
    // The live epoch has genuinely diverged from the pinned one.
    let fresh = reader.epoch();
    assert!(fresh.generation() > old.generation());
    assert_ne!(
        fresh.db().activity_log().len(),
        old.db().activity_log().len(),
        "later epochs carry the new activity"
    );
}

#[test]
fn reader_pinned_across_failover_stays_replay_consistent() {
    // A long-lived ReadHandle taken from a follower must survive that
    // instance's whole demote/promote arc: the pinned epoch answers
    // identically throughout (and identically to a cold replay of its
    // own snapshot), and after promotion the same handle starts seeing
    // the new leader's epochs.
    let db = WorldBuilder::new(SimConfig::small()).build().db;
    let mut cluster = Cluster::new(
        db,
        1,
        ClusterConfig { seed: 77, checkpoint_every: 6, faults: FaultPlan::none() },
    );
    let reader = cluster.follower_reader(0).expect("bootstrapped follower serves");
    let pinned = reader.epoch();
    let before = fingerprint(&pinned);
    let pinned_gen = reader.current_generation();

    let mut rng = Rng::seed_from_u64(77);
    let mut drive = |cluster: &mut Cluster, steps: std::ops::Range<usize>| {
        for step in steps {
            for op in hive_replica::synth::step_ops(cluster.leader_hive(), step, &mut rng) {
                let _ = cluster.apply(op);
            }
            cluster.commit();
        }
    };

    // Replicated writes land on the follower the handle points at...
    drive(&mut cluster, 0..25);
    assert!(cluster.heal(8));
    assert_eq!(fingerprint(&pinned), before, "pinned epoch tore while following");
    assert!(
        reader.current_generation() > pinned_gen,
        "the follower must have published fresher epochs meanwhile"
    );

    // ...then the instance is promoted to leader mid-lifetime...
    cluster.promote(0).expect("caught-up follower promotes");
    let gen_at_promotion = reader.current_generation();
    drive(&mut cluster, 25..50);

    // ...and the very same handle now serves the leader's epochs,
    // while the pinned epoch still answers exactly as on day one.
    assert!(
        reader.current_generation() > gen_at_promotion,
        "the handle must see epochs published after promotion"
    );
    assert_eq!(fingerprint(&pinned), before, "pinned epoch tore across failover");
    let cold = Epoch::rebuild(Arc::new(pinned.db().clone()));
    assert_eq!(fingerprint(&pinned), fingerprint(&cold), "pinned epoch must equal a cold replay");
    assert_eq!(
        reader.epoch().generation(),
        cluster.leader().generation(),
        "the handle tracks the promoted leader's head"
    );
}

#[test]
fn serve_soak_holds_across_seeds() {
    // Acceptance bar: ≥ 3 seeds × ≥ 200 steps of mixed reader/writer
    // traffic with zero snapshot-consistency violations.
    for seed in [41, 42, 43] {
        let report = serve_soak(ServeConfig {
            seed,
            steps: 200,
            readers: 3,
            publish_every: 10,
            users: 12,
        });
        assert!(report.ok(), "{}", report.render());
        assert!(report.publishes >= 20, "seed {seed}: expected ≥20 epochs");
        assert!(report.reads >= 4, "seed {seed}: every reader must read");
    }
}
