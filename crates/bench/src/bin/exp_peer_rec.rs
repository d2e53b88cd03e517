//! Experiment E4 — peer recommendation quality: "Hive proposes five other
//! researchers that Zach may want to connect during the event".
//!
//! The simulator withholds a set of same-topic connection pairs
//! (`held_out_connections`) that never enter the database. A good
//! recommender should surface those future peers. We measure
//! hit-rate@k and MRR for the full blend, each ablated strategy, and two
//! baselines (profile-similarity-only, random).
//!
//! Expected shape: blend, ppr-only and evidence-only > similarity-only
//! >> random; hit-rate grows with k. The blend need not beat its
//! components: on the medium world evidence-only leads on hit-rate@5
//! and MRR (`results/exp_peer_rec.txt`).
//!
//! Run: `cargo run -p hive-bench --release --bin exp_peer_rec`

use hive_bench::{header, row};
use hive_core::ids::UserId;
use hive_core::peers::{PeerRecConfig, PeerStrategy};
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::Hive;
use hive_rng::{Rng, SliceRandom};
use std::collections::{HashMap, HashSet};

fn main() {
    println!("E4 — peer recommendation vs planted future connections");
    let world = WorldBuilder::new(SimConfig::medium()).build();
    let hive = Hive::new(world.db.clone());
    // Ground truth per user.
    let mut truth: HashMap<UserId, HashSet<UserId>> = HashMap::new();
    for &(a, b) in &world.held_out_connections {
        truth.entry(a).or_default().insert(b);
        truth.entry(b).or_default().insert(a);
    }
    let eval_users: Vec<UserId> = truth.keys().copied().collect();
    println!(
        "{} held-out pairs over {} users with >= 1 positive",
        world.held_out_connections.len(),
        eval_users.len()
    );
    let k = 5;

    // Ranked candidate list per strategy, per user.
    type Ranker<'a> = Box<dyn Fn(UserId) -> Vec<UserId> + 'a>;
    let strategies: Vec<(&str, Ranker)> = vec![
        (
            "blend (ppr + evidence)",
            Box::new(|u| {
                hive.recommend_peers(
                    u,
                    PeerRecConfig::defaults().with_top_k(k).with_strategy(PeerStrategy::Blend),
                )
                .into_iter()
                .map(|r| r.user)
                .collect()
            }),
        ),
        (
            "ppr only",
            Box::new(|u| {
                hive.recommend_peers(
                    u,
                    PeerRecConfig::defaults().with_top_k(k).with_strategy(PeerStrategy::PprOnly),
                )
                .into_iter()
                .map(|r| r.user)
                .collect()
            }),
        ),
        (
            "evidence only",
            Box::new(|u| {
                hive.recommend_peers(
                    u,
                    PeerRecConfig::defaults()
                        .with_top_k(k)
                        .with_strategy(PeerStrategy::EvidenceOnly),
                )
                .into_iter()
                .map(|r| r.user)
                .collect()
            }),
        ),
        (
            "content similarity only",
            Box::new(|u| hive.similar_peers(u, k).into_iter().map(|(v, _)| v).collect()),
        ),
        (
            "random",
            Box::new(|u| {
                let mut rng = Rng::seed_from_u64(u.0 as u64);
                let mut all: Vec<UserId> = hive
                    .db()
                    .user_ids()
                    .into_iter()
                    .filter(|&v| v != u && !hive.db().are_connected(u, v))
                    .collect();
                all.shuffle(&mut rng);
                all.truncate(k);
                all
            }),
        ),
    ];

    header(&format!("Hit-rate@{k} and MRR against held-out connections"));
    row(&[
        "strategy".into(),
        format!("hit-rate@{k}"),
        "mrr".into(),
        "users hit".into(),
    ]);
    for (name, rank) in &strategies {
        let mut hits = 0usize;
        let mut rr_sum = 0.0;
        for &u in &eval_users {
            let recs = rank(u);
            let positives = &truth[&u];
            if let Some(pos) = recs.iter().position(|v| positives.contains(v)) {
                hits += 1;
                rr_sum += 1.0 / (pos + 1) as f64;
            }
        }
        let n = eval_users.len().max(1);
        row(&[
            name.to_string(),
            format!("{:.3}", hits as f64 / n as f64),
            format!("{:.3}", rr_sum / n as f64),
            format!("{hits}/{n}"),
        ]);
    }

    header("Hit-rate vs k (blend strategy)");
    row(&["k".into(), "hit-rate".into()]);
    for kk in [1usize, 3, 5, 10] {
        let mut hits = 0usize;
        for &u in &eval_users {
            let recs: Vec<UserId> = hive
                .recommend_peers(
                    u,
                    PeerRecConfig::defaults().with_top_k(kk).with_strategy(PeerStrategy::Blend),
                )
                .into_iter()
                .map(|r| r.user)
                .collect();
            if recs.iter().any(|v| truth[&u].contains(v)) {
                hits += 1;
            }
        }
        row(&[
            kk.to_string(),
            format!("{:.3}", hits as f64 / eval_users.len().max(1) as f64),
        ]);
    }
    println!(
        "\nExpected shape: the knowledge-backed strategies dominate the\n\
         similarity-only and random baselines; hit-rate grows with k."
    );
}
