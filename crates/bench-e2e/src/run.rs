//! One workload run: set-up, the measured closed loop, the traced
//! per-layer breakdown, and the output oracle.
//!
//! The loop is one thread driving one leader and two followers. Each
//! commit applies the write steps on the leader, seals and encodes the
//! frames and has every follower ingest them (write-to-visible on all
//! three replicas), then serves the reads round-robin over the three
//! replicas' read handles. Readers are lock-free by design (an epoch is
//! one `Arc` clone out of the publish slot), so a read never waits on
//! the writer and timing each read on its own is faithful to the
//! serving architecture while keeping every count repeatable.
//!
//! Every timing is restated at a nominal host speed, measured by the
//! reference computation of [`crate::calib`] as the run goes.

use crate::calib::Calibration;
use crate::stats::{self, Samples};
use crate::workload::{self, Kind, Read, ReadGen, Service, Spec, MIX};
use hive_core::discover::DiscoverConfig;
use hive_core::history::HistoryQuery;
use hive_core::peers::PeerRecConfig;
use hive_core::reports::ReportScope;
use hive_core::serve::{Epoch, ReadHandle};
use hive_core::sim::WorldBuilder;
use hive_core::{Hive, TickRange};
use hive_replica::{frame, Follower, Frame, Ingest, Leader, ReplicaError};
use hive_rng::Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant; // lint:allow(deterministic-time) -- wall-clock is the measurement

/// Followers fed by the leader.
pub const FOLLOWERS: usize = 2;

/// Users whose reads the oracle replays against a cold rebuild.
const PROBE_USERS: usize = 8;

/// Reference-computation samples spread over the measured phase; each
/// starts a segment of the run.
const CALIBRATIONS: usize = 64;

/// A segment's host speed is judged from this many of the latest
/// reference passes (median), its own first among them.
const CALIBRATION_WINDOW: usize = 5;

/// Time of one reference pass (see [`crate::calib`]) that every timing
/// is scaled to: a round figure within the 1.5-2.2 ms the host the
/// benchmark was sized on took.
const NOMINAL_PASS_S: f64 = 2.0e-3;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Seeds the writes (`seed`), the reads (`seed + 1`) and the
    /// oracle's probe queries (`seed + 2`).
    pub seed: u64,
    /// Sizes the commit count (see [`workload::spec`]).
    pub seconds: u64,
    /// Time every layer call instead of the end-to-end metrics.
    pub traced: bool,
    /// Small world, a fiftieth of the commits.
    pub smoke: bool,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value, or `None` for a percentile its sample cannot support.
    pub value: Option<f64>,
    /// Unit label.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Human-readable header and oracle lines.
    pub notes: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Operations attempted: write ops, follower ingests, reads and
    /// oracle comparisons.
    pub attempted: u64,
    /// Failed operations: ingest errors, divergence, oracle mismatches.
    pub failed: u64,
}

impl Outcome {
    /// The value of a metric, if reported and supported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    }
}

fn now() -> Instant {
    Instant::now() // lint:allow(deterministic-time)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One leader, its followers, and a read handle per replica (leader
/// first).
struct Replicas {
    leader: Leader,
    followers: Vec<Follower>,
    readers: Vec<ReadHandle>,
}

impl Replicas {
    fn hive(&self, replica: usize) -> &Hive {
        match replica {
            0 => self.leader.hive(),
            i => self.followers[i - 1]
                .hive()
                .expect("followers are booted in set-up"),
        }
    }
}

/// World build, leader boot, bootstrap checkpoint to every follower,
/// and one warm-up call of each read service on each replica.
fn boot(spec: &Spec) -> Replicas {
    let db = WorldBuilder::new(spec.world).build().db;
    let mut leader = Leader::new(db, workload::CHECKPOINT_EVERY);
    let mut followers: Vec<Follower> = (0..FOLLOWERS).map(Follower::blank).collect();
    for f in leader.seal_frames(true) {
        let wire = frame::encode(&f);
        for follower in &mut followers {
            follower
                .ingest(&wire)
                .expect("bootstrap checkpoint installs");
        }
    }
    let mut readers = vec![leader.reader()];
    readers.extend(
        followers
            .iter()
            .map(|f| f.reader().expect("follower booted")),
    );
    let users = leader.hive().db().user_ids();
    let warm = Read {
        service: Service::Search,
        user: users[0],
        other: users[1],
        query: "tensor stream community detection".to_string(),
        since: hive_core::clock::Timestamp(0),
    };
    for reader in &readers {
        let epoch = reader.epoch();
        for (service, _) in MIX {
            serve(
                &epoch,
                &Read {
                    service,
                    ..warm.clone()
                },
            );
        }
    }
    Replicas {
        leader,
        followers,
        readers,
    }
}

/// Answers one read from a pinned epoch.
fn serve(epoch: &Epoch, r: &Read) {
    let now = epoch.db().now();
    match r.service {
        Service::Search => {
            black_box(epoch.search(r.user, &r.query, DiscoverConfig::default()));
        }
        Service::RecommendPeers => {
            black_box(epoch.recommend_peers(r.user, PeerRecConfig::default()));
        }
        Service::RecommendResources => {
            black_box(epoch.recommend_resources(r.user, DiscoverConfig::default()));
        }
        Service::SimilarPeers => {
            black_box(epoch.similar_peers(r.user, 5));
        }
        Service::ExplainRelationship => {
            black_box(epoch.explain_relationship(r.user, r.other));
        }
        Service::ActivityContext => {
            black_box(epoch.activity_context(r.user));
        }
        Service::Digest => {
            black_box(epoch.digest(r.user, r.since));
        }
        Service::Highlights => {
            black_box(epoch.highlights(r.user, r.since, 10));
        }
        Service::UpdatesFor => {
            black_box(epoch.updates_for(r.user, r.since));
        }
        Service::SearchHistory => {
            let q = HistoryQuery::new()
                .with_actors(vec![r.user])
                .within(TickRange::since(r.since))
                .limit(10);
            black_box(epoch.search_history(&q, Some(r.user)));
        }
        Service::UpdateReport => {
            black_box(epoch.update_report(&ReportScope::Network(r.user), r.since, now, 8));
        }
        Service::TrendingSessions => {
            black_box(epoch.trending_sessions(r.since, now, 5));
        }
    }
}

/// Peak resident set of this process, from `VmHWM` in
/// `/proc/self/status`, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / MIB)
}

const MIB: f64 = 1024.0 * 1024.0;

/// Timers and counters of the measured phase. The end-to-end fields
/// fill on every run; the per-layer ones only when tracing.
#[derive(Default)]
struct Acc {
    write_ops: u64,
    accepted_ops: u64,
    rejected_ops: u64,
    reads: u64,
    failed: u64,
    ingests: u64,
    read: Samples,
    commit: Samples,
    apply: Samples,
    seal: Samples,
    encode: Samples,
    ingest_each: Samples,
    gen: f64,
    // Traced only.
    probe: f64,
    kn_patch: Samples,
    kn_rebuild: Samples,
    idx: Samples,
    ppr: Samples,
    snapshot: Samples,
    checkpoint: Samples,
    decode: Samples,
    epoch: Samples,
    per_service: Vec<Samples>,
    deltas: u64,
    graph_commits: u64,
    structural_commits: u64,
    wire_bytes: u64,
    ppr_reads: u64,
    ppr_hits: u64,
    solves: u64,
    memo_max: usize,
    solve_read_time: f64,
    /// Nominal over measured reference pass for the current segment.
    speed: f64,
}

impl Acc {
    /// Time since `t`, restated at the nominal host speed.
    fn secs(&self, t: Instant) -> f64 {
        secs(t) * self.speed
    }
}

/// Runs one workload and checks its outputs.
pub fn execute(opts: Options) -> Outcome {
    let spec = workload::spec(opts.kind, opts.seconds, opts.smoke);
    // Each set-up replaces the last, so only one cluster is alive at a
    // time and the final one serves the measured phase.
    let mut setup = Vec::with_capacity(spec.setups);
    let mut calib = if opts.smoke {
        Calibration::with_chain(1 << 16)
    } else {
        Calibration::default()
    };
    let mut reps = None;
    for _ in 0..spec.setups {
        drop(reps.take());
        calib.sample();
        let t = now();
        reps = Some(boot(&spec));
        setup.push(secs(t));
    }
    let mut reps = reps.expect("at least one set-up");
    let mut writes = Rng::seed_from_u64(opts.seed);
    let mut reads = ReadGen::new(&spec, reps.leader.hive(), opts.seed.wrapping_add(1));
    let mut acc = Acc {
        per_service: vec![Samples::default(); MIX.len()],
        speed: 1.0,
        ..Acc::default()
    };

    // The measured phase runs in segments, each opened by a reference
    // pass that sets the speed its timings are scaled by; the passes
    // themselves fall between segments, outside every timer.
    let calib_every = spec.commits.div_ceil(CALIBRATIONS).max(1);
    let mut wall = 0.0;
    let mut raw_wall = 0.0;
    let mut segment: Option<Instant> = None;
    let mut last_gen = reps.leader.generation();
    for c in 0..spec.commits {
        if c % calib_every == 0 {
            if let Some(t) = segment {
                wall += acc.secs(t);
                raw_wall += secs(t);
            }
            calib.sample();
            acc.speed = NOMINAL_PASS_S / calib.recent_median(CALIBRATION_WINDOW);
            segment = Some(now());
        }
        for s in 0..spec.steps_per_commit {
            let t = now();
            let ops = workload::step_ops(
                opts.kind,
                reps.leader.hive(),
                c * spec.steps_per_commit + s,
                &mut writes,
            );
            acc.gen += acc.secs(t);
            for op in ops {
                acc.write_ops += 1;
                let t = now();
                let res = reps.leader.apply(op);
                acc.apply.push(acc.secs(t));
                match res {
                    Ok(()) => acc.accepted_ops += 1,
                    Err(ReplicaError::Rejected(_)) => acc.rejected_ops += 1,
                    Err(_) => acc.failed += 1,
                }
            }
        }
        commit(&mut reps, &mut acc, opts.traced, &mut last_gen);
        for _ in 0..spec.reads_per_commit {
            let t = now();
            let r = reads.next(reps.leader.hive());
            acc.gen += acc.secs(t);
            let replica = (acc.reads % reps.readers.len() as u64) as usize;
            acc.reads += 1;
            if opts.traced {
                traced_read(&reps, replica, &r, &mut acc);
            } else {
                let t = now();
                let epoch = reps.readers[replica].epoch();
                serve(&epoch, &r);
                acc.read.push(acc.secs(t));
            }
        }
    }
    if let Some(t) = segment {
        wall += acc.secs(t);
        raw_wall += secs(t);
    }
    // Set-up comes before the first segment; it is scaled by the speed
    // over the whole run.
    let setup_speed = NOMINAL_PASS_S / calib.median();
    let setup: Vec<f64> = setup.iter().map(|s| s * setup_speed).collect();
    let rss = peak_rss_mb().map(|mb| mb - calib.resident_bytes() as f64 / MIB);

    let mut notes = vec![format!(
        "hive-bench-e2e workload={} seed={} trace={} smoke={} host_threads={} par_threads={} obs={} world_users={} commits={} steps_per_commit={} reads_per_commit={}",
        opts.kind.name(),
        opts.seed,
        u8::from(opts.traced),
        opts.smoke,
        hive_par::host_parallelism(),
        hive_par::threads(),
        hive_obs::level().label(),
        spec.world.users,
        spec.commits,
        spec.steps_per_commit,
        spec.reads_per_commit,
    )];
    let t = now();
    let (checks, mismatches) = oracle(&reps, opts.seed, &mut notes);
    let (q1, q3) = calib.quartiles();
    notes.push(format!(
        "measured phase {raw_wall:.3} s, oracle {:.3} s (wall clock, unscaled)",
        secs(t)
    ));
    notes.push(format!(
        "host speed: reference pass {:.4} ms (median of {}, quartiles {:.4}-{:.4}), nominal {:.1} ms; times below are scaled segment by segment, by {:.4} over the whole measured phase",
        calib.median() * 1e3,
        calib.len(),
        q1 * 1e3,
        q3 * 1e3,
        NOMINAL_PASS_S * 1e3,
        wall / raw_wall
    ));
    acc.failed += mismatches;
    let attempted = acc.write_ops + acc.ingests + acc.reads + checks;
    let metrics = if opts.traced {
        layer_metrics(&acc, wall)
    } else {
        e2e_metrics(&acc, wall, &setup, rss, attempted)
    };
    Outcome {
        notes,
        metrics,
        attempted,
        failed: acc.failed,
    }
}

/// Seal, encode, and ingest on every follower: write-to-visible on all
/// three replicas. Traced runs first bring the public tiers up to date
/// so the seal time left over is the rel tier, the db snapshot, the
/// slot swap and frame assembly.
fn commit(reps: &mut Replicas, acc: &mut Acc, traced: bool, last_gen: &mut u64) {
    let mut pre = 0.0;
    if traced {
        // The journal window since the last commit; a window the journal
        // no longer covers rebuilds like a structural one.
        let t = now();
        let (deltas, graph, structural) = match reps.leader.hive().db().deltas_since(*last_gen) {
            Some(w) => (
                w.len() as u64,
                w.iter().any(|d| d.touches_graph()),
                w.iter().any(|d| d.is_structural()),
            ),
            None => (0, true, true),
        };
        acc.probe += acc.secs(t);
        acc.deltas += deltas;
        acc.graph_commits += u64::from(graph);
        acc.structural_commits += u64::from(structural);
        let hive = reps.leader.hive();
        let t = now();
        black_box(hive.knowledge());
        let kn = acc.secs(t);
        let t = now();
        black_box(hive.indexes());
        let idx = acc.secs(t);
        let t = now();
        black_box(hive.ppr());
        let ppr = acc.secs(t);
        if structural {
            acc.kn_rebuild.push(kn);
        } else {
            acc.kn_patch.push(kn);
        }
        acc.idx.push(idx);
        acc.ppr.push(ppr);
        pre = kn + idx + ppr;
    }
    let t = now();
    let frames: Vec<Frame> = reps.leader.seal_frames(false);
    let seal = acc.secs(t);
    acc.seal.push(seal);
    let mut total = pre + seal;
    if frames.iter().any(Frame::is_checkpoint) {
        acc.checkpoint.push(seal);
    }
    for f in &frames {
        let t = now();
        let wire = frame::encode(f);
        let enc = acc.secs(t);
        acc.encode.push(enc);
        total += enc;
        acc.wire_bytes += wire.len() as u64;
        for follower in &mut reps.followers {
            let t = now();
            let res = follower.ingest(&wire);
            let ing = acc.secs(t);
            acc.ingest_each.push(ing);
            total += ing;
            acc.ingests += 1;
            if !matches!(res, Ok(Ingest::Applied { .. } | Ingest::Checkpoint)) {
                acc.failed += 1;
            }
        }
        if traced {
            let t = now();
            black_box(frame::decode(&wire).is_ok());
            acc.decode.push(acc.secs(t));
            acc.probe += acc.secs(t);
        }
    }
    acc.commit.push(total);
    if traced {
        *last_gen = reps.leader.generation();
        // HiveDb::clone is the deep copy every publish makes; timed
        // here on its own because it is not separable from the seal.
        let t = now();
        let copy = reps.leader.hive().db().clone();
        acc.snapshot.push(acc.secs(t));
        drop(copy);
        acc.probe += acc.secs(t);
    }
}

/// A traced read: epoch acquire and the service timed apart, and the
/// PPR memo of the serving replica probed around PPR-backed services.
fn traced_read(reps: &Replicas, replica: usize, r: &Read, acc: &mut Acc) {
    let probe = r.service.uses_ppr().then(|| {
        let t = now();
        let ppr = reps.hive(replica).ppr();
        let before = ppr.len();
        acc.probe += acc.secs(t);
        (ppr, before)
    });
    let t = now();
    let epoch = reps.readers[replica].epoch();
    acc.epoch.push(acc.secs(t));
    let t = now();
    serve(&epoch, r);
    let dt = acc.secs(t);
    acc.per_service[r.service.index()].push(dt);
    if let Some((ppr, before)) = probe {
        let t = now();
        let after = ppr.len();
        acc.probe += acc.secs(t);
        acc.ppr_reads += 1;
        acc.memo_max = acc.memo_max.max(after);
        if after > before {
            acc.solves += (after - before) as u64;
            acc.solve_read_time += dt;
        } else {
            acc.ppr_hits += 1;
        }
    }
}

fn metric(name: &str, value: Option<f64>, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

fn us(s: &Samples, q: f64) -> Option<f64> {
    s.percentile(q).map(|x| x * 1e6)
}

fn e2e_metrics(
    acc: &Acc,
    wall: f64,
    setup: &[f64],
    rss: Option<f64>,
    attempted: u64,
) -> Vec<Metric> {
    let ops = (acc.write_ops + acc.reads) as usize;
    let leader_time = acc.apply.sum() + acc.seal.sum() + acc.encode.sum();
    let follower_time = acc.ingest_each.sum() / FOLLOWERS as f64;
    vec![
        metric("setup_s", Some(stats::median(setup)), "s", setup.len()),
        metric(
            "throughput_ops_per_s",
            Some(ops as f64 / wall),
            "ops/s",
            ops,
        ),
        metric("read_p50_us", us(&acc.read, 0.50), "us", acc.read.len()),
        metric("read_p99_us", us(&acc.read, 0.99), "us", acc.read.len()),
        metric(
            "commit_p50_us",
            us(&acc.commit, 0.50),
            "us",
            acc.commit.len(),
        ),
        metric(
            "commit_p90_us",
            us(&acc.commit, 0.90),
            "us",
            acc.commit.len(),
        ),
        metric(
            "leader_write_ops_per_s",
            Some(acc.write_ops as f64 / leader_time),
            "ops/s",
            acc.write_ops as usize,
        ),
        metric(
            "follower_apply_ops_per_s",
            Some(acc.accepted_ops as f64 / follower_time),
            "ops/s",
            acc.accepted_ops as usize,
        ),
        metric("peak_rss_mb", rss, "MiB", 1),
        metric(
            "error_rate",
            Some(acc.failed as f64 / attempted.max(1) as f64),
            "fraction",
            attempted as usize,
        ),
    ]
}

/// The traced breakdown. Shares are over the measured wall time less
/// the trace-only probes (memo and journal probes, the extra db copy and
/// frame decode), so the layers, the generator and the unattributed
/// remainder sum to one.
fn layer_metrics(acc: &Acc, wall: f64) -> Vec<Metric> {
    let work = wall - acc.probe;
    let share = |t: f64| Some(t / work);
    let kn = acc.kn_patch.sum() + acc.kn_rebuild.sum();
    let reads: f64 = acc.per_service.iter().map(Samples::sum).sum();
    let attributed = acc.apply.sum()
        + kn
        + acc.idx.sum()
        + acc.ppr.sum()
        + acc.seal.sum()
        + acc.encode.sum()
        + acc.ingest_each.sum()
        + acc.epoch.sum()
        + reads
        + acc.gen;
    let commits = acc.commit.len().max(1) as f64;
    let mut out = vec![
        metric(
            "replica.leader.apply_p50_us",
            us(&acc.apply, 0.5),
            "us",
            acc.apply.len(),
        ),
        metric(
            "replica.leader.apply_share",
            share(acc.apply.sum()),
            "fraction",
            acc.apply.len(),
        ),
        metric(
            "replica.leader.rejected_frac",
            Some(acc.rejected_ops as f64 / acc.write_ops.max(1) as f64),
            "fraction",
            acc.write_ops as usize,
        ),
        metric(
            "core.journal.deltas_per_commit",
            Some(acc.deltas as f64 / commits),
            "count",
            acc.commit.len(),
        ),
        metric(
            "core.journal.graph_commit_frac",
            Some(acc.graph_commits as f64 / commits),
            "fraction",
            acc.commit.len(),
        ),
        metric(
            "core.journal.structural_commit_frac",
            Some(acc.structural_commits as f64 / commits),
            "fraction",
            acc.commit.len(),
        ),
        metric(
            "core.tier.kn_patch_p50_us",
            us(&acc.kn_patch, 0.5),
            "us",
            acc.kn_patch.len(),
        ),
        metric(
            "core.tier.kn_rebuild_p50_us",
            us(&acc.kn_rebuild, 0.5),
            "us",
            acc.kn_rebuild.len(),
        ),
        metric(
            "core.tier.kn_share",
            share(kn),
            "fraction",
            acc.kn_patch.len() + acc.kn_rebuild.len(),
        ),
        metric(
            "core.tier.idx_p50_us",
            us(&acc.idx, 0.5),
            "us",
            acc.idx.len(),
        ),
        metric(
            "core.tier.idx_share",
            share(acc.idx.sum()),
            "fraction",
            acc.idx.len(),
        ),
        metric(
            "core.tier.ppr_p50_us",
            us(&acc.ppr, 0.5),
            "us",
            acc.ppr.len(),
        ),
        metric(
            "core.tier.ppr_share",
            share(acc.ppr.sum()),
            "fraction",
            acc.ppr.len(),
        ),
        metric(
            "core.db.snapshot_p50_us",
            us(&acc.snapshot, 0.5),
            "us",
            acc.snapshot.len(),
        ),
        metric(
            "replica.leader.seal_p50_us",
            us(&acc.seal, 0.5),
            "us",
            acc.seal.len(),
        ),
        metric(
            "replica.leader.seal_share",
            share(acc.seal.sum()),
            "fraction",
            acc.seal.len(),
        ),
        metric(
            "replica.leader.checkpoint_p50_us",
            us(&acc.checkpoint, 0.5),
            "us",
            acc.checkpoint.len(),
        ),
        metric(
            "replica.frame.encode_p50_us",
            us(&acc.encode, 0.5),
            "us",
            acc.encode.len(),
        ),
        metric(
            "replica.frame.encode_share",
            share(acc.encode.sum()),
            "fraction",
            acc.encode.len(),
        ),
        metric(
            "replica.frame.bytes_per_op",
            Some(acc.wire_bytes as f64 / acc.accepted_ops.max(1) as f64),
            "B/op",
            acc.accepted_ops as usize,
        ),
        metric(
            "replica.frame.decode_p50_us",
            us(&acc.decode, 0.5),
            "us",
            acc.decode.len(),
        ),
        metric(
            "replica.follower.ingest_p50_us",
            us(&acc.ingest_each, 0.5),
            "us",
            acc.ingest_each.len(),
        ),
        metric(
            "replica.follower.ingest_share",
            share(acc.ingest_each.sum()),
            "fraction",
            acc.ingest_each.len(),
        ),
        metric(
            "core.serve.epoch_p50_ns",
            acc.epoch.percentile(0.5).map(|x| x * 1e9),
            "ns",
            acc.epoch.len(),
        ),
        metric(
            "core.serve.epoch_share",
            share(acc.epoch.sum()),
            "fraction",
            acc.epoch.len(),
        ),
    ];
    for (i, (service, _)) in MIX.iter().enumerate() {
        let s = &acc.per_service[i];
        let n = s.len();
        let name = service.name();
        out.push(metric(&format!("read.{name}.p50_us"), us(s, 0.5), "us", n));
        out.push(metric(&format!("read.{name}.p99_us"), us(s, 0.99), "us", n));
        out.push(metric(
            &format!("read.{name}.share"),
            share(s.sum()),
            "fraction",
            n,
        ));
    }
    let ppr_reads = acc.ppr_reads as usize;
    out.extend([
        metric(
            "core.ppr.memo_hit_frac",
            Some(acc.ppr_hits as f64 / acc.ppr_reads.max(1) as f64),
            "fraction",
            ppr_reads,
        ),
        metric(
            "core.ppr.solves",
            Some(acc.solves as f64),
            "count",
            ppr_reads,
        ),
        metric(
            "core.ppr.memo_entries_max",
            Some(acc.memo_max as f64),
            "count",
            ppr_reads,
        ),
        metric(
            "core.ppr.solve_read_share",
            Some(acc.solve_read_time / reads),
            "fraction",
            ppr_reads,
        ),
        metric("driver.gen_share", share(acc.gen), "fraction", 1),
        metric(
            "trace.unattributed_share",
            share(work - attributed),
            "fraction",
            1,
        ),
        metric("trace.overhead_frac", Some(acc.probe / work), "fraction", 1),
    ]);
    out
}

/// Hex rendering of a float's exact bit pattern.
fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Renders the answers the oracle compares, floats as exact bits.
fn probe_answers(
    epoch: &Epoch,
    user: hive_core::ids::UserId,
    other: hive_core::ids::UserId,
    query: &str,
) -> [String; 3] {
    let search: Vec<String> = epoch
        .search(user, query, DiscoverConfig::default())
        .iter()
        .map(|h| format!("{:?}={}:{}", h.resource, bits(h.score), h.title))
        .collect();
    let peers: Vec<String> = epoch
        .recommend_peers(user, PeerRecConfig::default())
        .iter()
        .map(|p| {
            let sessions: Vec<String> = p
                .likely_sessions
                .iter()
                .map(|(s, w)| format!("{}={}", s.iri(), bits(*w)))
                .collect();
            format!(
                "{}={} reasons={} [{}]",
                p.user.iri(),
                bits(p.score),
                p.reasons.len(),
                sessions.join(",")
            )
        })
        .collect();
    let exp = epoch.explain_relationship(user, other);
    let items: Vec<String> = exp
        .items
        .iter()
        .map(|i| format!("{:?}={}:{}", i.kind, bits(i.score), i.explanation))
        .collect();
    [
        search.join("|"),
        peers.join("|"),
        format!(
            "combined={} items=[{}] paths=[{}]",
            bits(exp.combined),
            items.join("|"),
            exp.paths.join("|")
        ),
    ]
}

/// The output oracle. Every follower's database equals the leader's
/// (their checkpoints serialize byte for byte), and on every replica's
/// last published epoch the probe users' search, peer and explanation
/// reads and the index digest equal those of a cold [`Epoch::rebuild`]
/// at the same generation, bit for bit. Returns (checks, mismatches).
fn oracle(reps: &Replicas, seed: u64, notes: &mut Vec<String>) -> (u64, u64) {
    let mut checks = 0;
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: &dyn Fn() -> String| {
        checks += 1;
        if !ok {
            failures.push(format!("oracle: {}", what()));
        }
    };
    let state = |h: &Hive| hive_json::to_string(&h.db().checkpoint());
    let leader_state = state(reps.leader.hive());
    for (i, f) in reps.followers.iter().enumerate() {
        let same = f.hive().map(state).as_ref() == Some(&leader_state);
        check(same, &|| {
            format!("follower {i} database differs from the leader's")
        });
    }
    let epochs: Vec<Arc<Epoch>> = reps.readers.iter().map(ReadHandle::epoch).collect();
    let cold = Epoch::rebuild(Arc::new(epochs[0].db().clone()));
    let users = cold.db().user_ids();
    let mut rng = Rng::seed_from_u64(seed.wrapping_add(2));
    let probes: Vec<_> = (0..PROBE_USERS)
        .map(|k| {
            let user = users[k * users.len() / PROBE_USERS];
            let other = users[((k + 1) * users.len() / PROBE_USERS) % users.len()];
            let query = hive_core::sim::topic_phrase(k, &mut rng);
            let want = probe_answers(&cold, user, other, &query);
            (user, other, query, want)
        })
        .collect();
    for (r, epoch) in epochs.iter().enumerate() {
        check(epoch.generation() == cold.generation(), &|| {
            format!("replica {r} serves generation {}", epoch.generation())
        });
        check(epoch.indexes().digest() == cold.indexes().digest(), &|| {
            format!("replica {r} index digest differs from a cold build")
        });
        for (user, other, query, want) in &probes {
            let served = probe_answers(epoch, *user, *other, query);
            for (what, (a, b)) in ["search", "recommend_peers", "explain_relationship"]
                .iter()
                .zip(served.iter().zip(want))
            {
                check(a == b, &|| {
                    format!(
                        "replica {r} {what} for {} differs from a cold rebuild",
                        user.iri()
                    )
                });
            }
        }
    }
    let bad = failures.len() as u64;
    notes.extend(failures);
    notes.push(format!(
        "oracle: {} of {checks} checks passed (follower databases vs leader; on {} replicas, index digest and {PROBE_USERS} probe users x 3 reads vs Epoch::rebuild at generation {})",
        checks - bad,
        epochs.len(),
        cold.generation()
    ));
    (checks, bad)
}
