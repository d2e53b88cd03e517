//! E2 microbenchmarks: truncated diffusion, indexed vs recomputed impact
//! queries, and invalidation cost under updates.
//!
//! Run: `cargo bench -p hive-bench --bench bench_ini`

use hive_bench::{
    header, iters, mean, metric, report, report_header, time_n, time_once, write_json_fragment,
};
use hive_graph::{
    diffuse, personalized_pagerank_csr, CsrView, DiffusionParams, Graph, ImpactIndex,
    ImpactQueryEngine, NodeId, PprConfig, RecomputeEngine,
};
use hive_rng::Rng;
use std::collections::HashMap;

fn random_graph(n: usize, seed: u64) -> Graph {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = (0..n).map(|i| g.add_node(format!("n{i}"))).collect();
    let mut rng = Rng::seed_from_u64(seed);
    for i in 1..n {
        for _ in 0..4.min(i) {
            let j = rng.gen_range(0..i);
            g.add_edge(ids[i], ids[j], rng.gen_range(0.1..1.0));
            g.add_edge(ids[j], ids[i], rng.gen_range(0.1..1.0));
        }
    }
    g
}

fn bench_diffusion() {
    header("ini_diffusion");
    report_header();
    let g = random_graph(2_000, 1);
    for eps in [1e-2f64, 1e-4] {
        let params = DiffusionParams { alpha: 0.5, epsilon: eps };
        let samples = time_n(iters(20, 3), || {
            std::hint::black_box(diffuse(&g, NodeId(3), params));
        });
        report(&format!("eps_{eps:.0e}"), &samples);
    }
}

fn bench_ppr_scaling() {
    header("ini_ppr");
    report_header();
    // The full-iteration workload: a uniform random expander of 20,000
    // nodes and ~160k directed edges, seven times the edges of the
    // largest served graph (928 nodes, 23,542 edges).
    let g = random_graph(20_000, 4);
    let csr = CsrView::build(&g);
    let mut seeds = HashMap::new();
    seeds.insert(NodeId(3), 1.0);
    let cfg = PprConfig::default();
    let n = iters(10, 3);
    // Interleave one cold/warm sample per round so drift in machine
    // state lands evenly on both variants instead of biasing whichever
    // block ran last.
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    std::hint::black_box(personalized_pagerank_csr(&csr, &seeds, cfg)); // warmup
    for _ in 0..n {
        let (_, us) = time_once(|| {
            std::hint::black_box(personalized_pagerank_csr(&CsrView::build(&g), &seeds, cfg));
        });
        cold.push(us);
        let (_, us) = time_once(|| {
            std::hint::black_box(personalized_pagerank_csr(&csr, &seeds, cfg));
        });
        warm.push(us);
    }
    report("cold_rebuild_csr", &cold);
    report("warm_serial_t1", &warm);
    metric("host_threads", std::thread::available_parallelism().map_or(1.0, |p| p.get() as f64));
    metric("ppr_warm_vs_cold_speedup", mean(&cold) / mean(&warm));
}

fn bench_query_paths() {
    header("ini_query");
    report_header();
    let g = random_graph(2_000, 2);
    let params = DiffusionParams { alpha: 0.5, epsilon: 1e-3 };
    let mut base = RecomputeEngine::new(g.clone(), params);
    let mut idx = ImpactIndex::new(g, params);
    idx.build_full();
    let samples = time_n(iters(20, 3), || {
        std::hint::black_box(base.impact(NodeId(7)));
    });
    report("recompute", &samples);
    let samples = time_n(iters(200, 20), || {
        std::hint::black_box(idx.impact(NodeId(7)));
    });
    report("indexed_hit", &samples);
}

fn bench_update() {
    header("ini_update");
    report_header();
    let g = random_graph(2_000, 3);
    let params = DiffusionParams { alpha: 0.5, epsilon: 1e-3 };
    // Setup (warming a slice of the cache) is excluded from the timing:
    // only the edge insertion with its invalidation work is measured.
    let mut samples = Vec::new();
    for _ in 0..iters(10, 2) {
        let mut idx = ImpactIndex::new(g.clone(), params);
        for s in 0..50u32 {
            idx.impact(NodeId(s));
        }
        let (_, us) = time_once(|| {
            idx.add_edge(NodeId(1), NodeId(2), 0.5);
        });
        samples.push(us);
    }
    report("add_edge_with_invalidation", &samples);
}

fn main() {
    println!("bench_ini — incremental impact-index microbenchmarks");
    bench_diffusion();
    bench_ppr_scaling();
    bench_query_paths();
    bench_update();
    write_json_fragment("bench_ini");
}
