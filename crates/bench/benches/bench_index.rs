//! Secondary-index benchmarks: the activity-log query planner against
//! the full-scan reference path it replaced.
//!
//! Run: `cargo bench -p hive-bench --bench bench_index`
//!
//! One claim is measured at the medium world: a history-shaped query
//! (one actor, bounded window) answered from the actor postings beats
//! the full activity-log scan (`idx_vs_scan_speedup`, floor-gated at
//! 5.0 in the allowlist).
//!
//! `index/build_us` times the index replay a cold [`Epoch::rebuild`]
//! runs over the arenas and the log.

use hive_bench::{
    header, iters, mean, metric, report, report_header, time_n, time_once, write_json_fragment,
};
use hive_core::clock::Timestamp;
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::{ActivityQuery, Epoch, HiveDb, TickRange};
use std::sync::Arc;

/// The actor with the longest posting list — the worst indexed case,
/// so the speedup is not flattered by a near-empty result.
fn busiest_actor(db: &HiveDb) -> hive_core::ids::UserId {
    db.user_ids()
        .into_iter()
        .max_by_key(|&u| db.indexes().actor_postings(u).len())
        .expect("medium world has users")
}

/// Indexed run vs reference scan for one query shape; asserts the two
/// paths agree before trusting the timings.
fn run_vs_scan(db: &HiveDb, label: &str, query: &ActivityQuery) -> f64 {
    assert_eq!(query.run(db), query.scan(db), "planner must match the scan for {label}");
    // Both paths are microseconds; a deep sample keeps the ratio out
    // of allocator-warmup noise even in smoke mode.
    let n = iters(600, 150);
    let run = time_n(n, || {
        std::hint::black_box(query.run(db));
    });
    let scan = time_n(n, || {
        std::hint::black_box(query.scan(db));
    });
    report(&format!("{label}_indexed"), &run);
    report(&format!("{label}_scan"), &scan);
    mean(&scan) / mean(&run)
}

fn bench_queries() {
    header("index");
    report_header();
    let db = Arc::new(WorldBuilder::new(SimConfig::medium()).build().db);
    let (epoch, build_us) = time_once(|| Epoch::rebuild(db));
    metric("build_us", build_us);
    let db = epoch.db();
    let zach = busiest_actor(db);
    let mid = Timestamp(db.now().ticks() / 2);

    // The `search_history` shape: one actor, the later half of the log.
    let history = ActivityQuery::new()
        .with_actors(vec![zach])
        .within(TickRange::since(mid));
    let speedup = run_vs_scan(db, "history_actor_window", &history);
    metric("idx_vs_scan_speedup", speedup);
}

fn main() {
    println!("bench_index — typed secondary indexes: planner vs scan");
    bench_queries();
    write_json_fragment("bench_index");
}
