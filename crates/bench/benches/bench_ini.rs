//! E2 microbenchmarks: truncated diffusion, indexed vs recomputed impact
//! queries, and invalidation cost under updates.
//!
//! Run: `cargo bench -p hive-bench --bench bench_ini`

use hive_bench::{
    header, iters, mean, metric, report, report_header, time_n, time_once, write_json_fragment,
};
use hive_graph::{
    diffuse, personalized_pagerank_csr, CsrView, DiffusionParams, DynPprConfig, DynamicPpr, Graph,
    ImpactIndex, ImpactQueryEngine, NodeId, PprConfig, RecomputeEngine,
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

/// Community-structured topology (ring of dense cliques with sparse
/// bridges) modeling co-authorship/activity graphs: PPR mass
/// concentrates around the seed's community, so a random arrival
/// usually perturbs the maintained state by nearly nothing. A uniform
/// random graph is the adversarial opposite — an expander where every
/// arrival couples to every seed — and is kept in `bench_ppr_scaling`
/// as the full-iteration workload.
fn community_graph(cliques: usize, size: usize, seed: u64) -> Graph {
    let mut g = Graph::new();
    let n = cliques * size;
    let ids: Vec<NodeId> = (0..n).map(|i| g.add_node(format!("n{i}"))).collect();
    let mut rng = Rng::seed_from_u64(seed);
    for c in 0..cliques {
        let base = c * size;
        for i in 0..size {
            for _ in 0..3 {
                let j = rng.gen_range(0..size);
                if i != j {
                    g.add_undirected_edge(ids[base + i], ids[base + j], rng.gen_range(0.5..1.0));
                }
            }
        }
        let next = ((c + 1) % cliques) * size;
        for _ in 0..2 {
            let a = rng.gen_range(0..size);
            let b = rng.gen_range(0..size);
            g.add_undirected_edge(ids[base + a], ids[next + b], 0.05);
        }
    }
    g
}

fn bench_ppr_incremental() {
    header("ini_ppr_incr");
    report_header();
    // Warm-update path: a single edge arrival lands between queries.
    // The incremental leg patches residuals and pushes to the certified
    // tolerance; the full leg does what the system otherwise must —
    // reingest the edge, rebuild the CSR, and re-run the power
    // iteration. Same arrivals, same seed, interleaved per round.
    let g = community_graph(200, 100, 5);
    let mut seeds = HashMap::new();
    seeds.insert(NodeId(3), 1.0);
    let cfg = PprConfig::default();
    let mut engine = DynamicPpr::new(g.clone(), cfg, DynPprConfig::default());
    std::hint::black_box(engine.scores_incremental(&seeds)); // prime the seed state
    let mut full_graph = g;
    let mut rng = Rng::seed_from_u64(17);
    let node_count = full_graph.node_count();
    let mut incr = Vec::new();
    let mut full = Vec::new();
    for _ in 0..iters(10, 3) {
        let u = NodeId(rng.gen_range(0..node_count) as u32);
        let v = NodeId(rng.gen_range(0..node_count) as u32);
        let w = rng.gen_range(0.1..1.0);
        let (_, us) = time_once(|| {
            engine.apply_undirected_edge(u, v, w);
            std::hint::black_box(engine.scores_incremental(&seeds));
        });
        incr.push(us);
        let (_, us) = time_once(|| {
            full_graph.add_undirected_edge(u, v, w);
            std::hint::black_box(personalized_pagerank_csr(
                &CsrView::build(&full_graph),
                &seeds,
                cfg,
            ));
        });
        full.push(us);
    }
    report("warm_update_incremental", &incr);
    report("warm_update_full", &full);
    metric("host_threads", std::thread::available_parallelism().map_or(1.0, |p| p.get() as f64));
    metric("ppr_incr_vs_full_speedup", mean(&full) / mean(&incr));
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
    bench_ppr_incremental();
    bench_query_paths();
    bench_update();
    write_json_fragment("bench_ini");
}
