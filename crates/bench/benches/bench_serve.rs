//! Epoch-snapshot serving benchmarks: reads/sec with 1/2/4 concurrent
//! reader tasks sharing one `ReadHandle`, and the writer's
//! epoch-publish latency after three kinds of write: a neutral comment,
//! a paper view and a follow.
//!
//! Run: `cargo bench -p hive-bench --bench bench_serve`
//!
//! The reader fan-out uses `hive_par::force_workers` so the pool spawns
//! exactly N workers even on a small host; on a single-core machine the
//! multi-reader ratios measure scheduling overhead, not parallelism, so
//! `bench_gate` exempts them when the recorded `host_threads` is < 2.

use hive_bench::{
    header, iters, metric, percentile, report, report_header, time_once, write_json_fragment,
};
use hive_core::discover::DiscoverConfig;
use hive_core::model::QaTarget;
use hive_core::serve::{Epoch, HiveServer};
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::Hive;

fn server() -> HiveServer {
    HiveServer::new(WorldBuilder::new(SimConfig::medium()).build().db)
}

/// One serving "read": the hottest read service plus a cheap ranking,
/// all answered from the pinned epoch without touching any lock.
fn read_battery(epoch: &Epoch) {
    let users = epoch.db().user_ids();
    let u = users[0];
    std::hint::black_box(epoch.search(u, "tensor stream sketch", DiscoverConfig::default()));
    std::hint::black_box(epoch.similar_peers(u, 5));
}

/// Reads/sec with N reader tasks hammering one shared `ReadHandle`. Each
/// fan-out runs 15 trials of 40 reads per task, and its rate is taken
/// from the median trial, so one slow trial on a loaded host does not
/// move it.
fn bench_reads() {
    header("serve_reads");
    report_header();
    let s = server();
    let handle = s.reader();
    read_battery(&handle.epoch()); // warm the world's caches once
    let per_task = iters(40, 3);
    let trials = iters(15, 1);
    let mut rate_r1 = 0.0;
    for n in [1usize, 2, 4] {
        let roles: Vec<usize> = (0..n).collect();
        let run = || {
            hive_par::force_workers(n, || {
                hive_par::par_tasks(&roles, |_, _| {
                    for _ in 0..per_task {
                        read_battery(&handle.epoch());
                    }
                });
            })
        };
        run(); // unmeasured warmup round at this fan-out
        let mut per_read = Vec::with_capacity(trials);
        for _ in 0..trials {
            let ((), us) = time_once(run);
            per_read.push(us / (n * per_task) as f64);
        }
        report(&format!("readers_{n}"), &per_read);
        let rate = 1e6 / percentile(&per_read, 50.0);
        metric(&format!("reads_per_sec_r{n}"), rate);
        if n == 1 {
            rate_r1 = rate;
        } else {
            metric(&format!("reads_r{n}_vs_r1_speedup"), rate / rate_r1);
        }
        if n == 4 {
            metric("concurrent_read_speedup", rate / rate_r1);
        }
    }
    metric("host_threads", std::thread::available_parallelism().map_or(1.0, |p| p.get() as f64));
}

/// Times `n` publishes, each after one write by `write(hive, i)`.
fn publish_after(s: &mut HiveServer, n: usize, write: impl Fn(&mut Hive, usize)) -> Vec<f64> {
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        s.writer().advance_clock(1);
        write(s.writer(), i);
        let ((), us) = time_once(|| {
            std::hint::black_box(s.publish());
        });
        samples.push(us);
    }
    samples
}

/// Writer-side publish latency, one leg per kind of write:
/// - `publish_neutral`: a comment journals a neutral delta, so every
///   tier re-stamps and the publish is the database clone alone;
/// - `publish_activity`: a paper view adds a knowledge-network edge, so
///   the kn tier is patched and the PPR memo cleared, while the
///   relationship snapshot, which has no view triples, re-stamps;
/// - `publish_graph_touch`: a follow patches all three tiers.
fn bench_publish() {
    header("serve_publish");
    report_header();
    let mut s = server();
    let users = s.hive().db().user_ids();
    let papers = s.hive().db().paper_ids();
    let session = s.hive().db().session_ids()[0];
    let n = iters(20, 3);
    let neutral = publish_after(&mut s, n, |h, i| {
        h.comment(users[i % users.len()], QaTarget::Session(session), "a neutral comment").ok();
    });
    report("publish_neutral", &neutral);
    let activity = publish_after(&mut s, n, |h, i| {
        h.view_paper(users[i % users.len()], papers[i % papers.len()]).ok();
    });
    report("publish_activity", &activity);
    let graph = publish_after(&mut s, n, |h, i| {
        h.follow(users[i % users.len()], users[(i + 7) % users.len()]).ok();
    });
    report("publish_graph_touch", &graph);
}

fn main() {
    println!("bench_serve — epoch-snapshot serving: concurrent reads and publish latency");
    bench_reads();
    bench_publish();
    write_json_fragment("bench_serve");
}
