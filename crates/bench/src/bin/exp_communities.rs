//! Experiment E5 — community discovery and tracking (Table 1).
//!
//! Discovery: NMI of discovered communities against the simulator's
//! planted topic communities, for Louvain and label propagation, across
//! world sizes. Tracking: a stream of epoch interaction graphs with a
//! planted community *merge*; we check that the SCENT change detector
//! flags the merge epoch and that community matching exposes the event.
//!
//! Run: `cargo run -p hive-bench --release --bin exp_communities`

use hive_bench::{fmt_us, header, row, time_once};
use hive_core::communities::{discover, CommunityTracker, Method};
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_graph::{nmi_of_partitions, Graph};
use hive_scent::{DetectorBackend, SketchConfig};

fn main() {
    println!("E5 — community discovery and tracking");

    header("Discovery NMI vs planted topics");
    row(&[
        "world".into(),
        "method".into(),
        "communities".into(),
        "nmi".into(),
        "time".into(),
    ]);
    for (label, cfg) in [
        ("small (30u/4t)", SimConfig::small()),
        ("medium (150u/8t)", SimConfig::medium()),
    ] {
        let world = WorldBuilder::new(cfg).build();
        for method in [Method::Louvain, Method::LabelPropagation(7)] {
            let (comms, us) = time_once(|| discover(&world.db, method));
            let score = nmi_of_partitions(
                &comms
                    .members
                    .iter()
                    .map(|m| m.iter().map(|u| u.index()).collect())
                    .collect::<Vec<Vec<usize>>>(),
                &world
                    .planted_communities
                    .iter()
                    .map(|m| m.iter().map(|u| u.index()).collect())
                    .collect::<Vec<Vec<usize>>>(),
                cfg.users,
            );
            row(&[
                label.to_string(),
                format!("{method:?}"),
                comms.count().to_string(),
                format!("{score:.3}"),
                fmt_us(us),
            ]);
        }
    }

    header("Tracking: planted merge across epochs (SCENT-flagged)");
    // Synthetic epoch stream: two topic cliques, merging at epoch 8.
    let n_users = 20;
    let clique = |merged: bool| -> Graph {
        let mut g = Graph::new();
        let ids: Vec<_> = (0..n_users)
            .map(|i| g.add_node(format!("user:{i}")))
            .collect();
        let half = n_users / 2;
        for group in [&ids[..half], &ids[half..]] {
            for i in 0..group.len() {
                for j in (i + 1)..group.len() {
                    g.add_undirected_edge(group[i], group[j], 1.0);
                }
            }
        }
        if merged {
            for i in 0..half {
                for j in half..n_users {
                    g.add_undirected_edge(ids[i], ids[j], 1.0);
                }
            }
        }
        g
    };
    let mut tracker = CommunityTracker::new(
        n_users,
        Method::Louvain,
        DetectorBackend::Sketch(SketchConfig { measurements: 512, seed: 3 }),
    );
    let merge_epoch = 8;
    for e in 0..12 {
        tracker.observe(&clique(e >= merge_epoch));
    }
    let changes = tracker.change_epochs(4.0, 4);
    println!("epochs: 12, planted merge at epoch {merge_epoch}");
    println!("SCENT-flagged epochs: {changes:?}");
    row(&["epoch".into(), "communities".into()]);
    for e in 0..tracker.epoch_count() {
        row(&[e.to_string(), tracker.communities_at(e).count().to_string()]);
    }
    let matches = tracker.match_communities(merge_epoch - 1, merge_epoch);
    println!("\ncommunity matching across the merge boundary:");
    for (i, target, jac) in matches {
        println!("  community {i} -> {target:?} (jaccard {jac:.2})");
    }
    println!(
        "\nExpected shape: NMI well above chance on planted topics; the merge\n\
         epoch is flagged and both old communities map onto the merged one."
    );
}
