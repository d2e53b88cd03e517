//! End-to-end platform benchmarks: world generation, knowledge-network
//! derivation, and the hot service paths on the medium world.
//!
//! Run: `cargo bench -p hive-bench --bench bench_platform`

use hive_bench::{
    header, iters, mean, metric, report, report_header, time_n, write_json_fragment,
};
use hive_core::context::{build_context, ContextConfig};
use hive_core::evidence::explain_relationship;
use hive_core::discover::DiscoverConfig;
use hive_core::knowledge::KnowledgeNetwork;
use hive_core::peers::PeerRecConfig;
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::Hive;

fn bench_world_build() {
    header("platform_world_build");
    report_header();
    let samples = time_n(iters(10, 2), || {
        std::hint::black_box(WorldBuilder::new(SimConfig::small()).build());
    });
    report("small", &samples);
    let samples = time_n(iters(5, 1), || {
        std::hint::black_box(WorldBuilder::new(SimConfig::medium()).build());
    });
    report("medium", &samples);
}

fn bench_knowledge_build() {
    header("platform_knowledge_build");
    report_header();
    let world = WorldBuilder::new(SimConfig::medium()).build();
    let samples = time_n(iters(10, 2), || {
        std::hint::black_box(KnowledgeNetwork::build(&world.db));
    });
    report("medium", &samples);
}

fn bench_services() {
    header("platform_services");
    report_header();
    let world = WorldBuilder::new(SimConfig::medium()).build();
    let hive = Hive::new(world.db);
    let zach = hive.db().user_ids()[0];
    let _ = hive.knowledge(); // warm
    let samples = time_n(iters(20, 3), || {
        let kn = hive.knowledge();
        std::hint::black_box(build_context(hive.db(), &kn, zach, ContextConfig::default()));
    });
    report("activity_context", &samples);
    let samples = time_n(iters(20, 3), || {
        std::hint::black_box(hive.recommend_peers(zach, PeerRecConfig::default()));
    });
    report("recommend_peers", &samples);
    let samples = time_n(iters(20, 3), || {
        std::hint::black_box(hive.search(zach, "tensor stream sketch", DiscoverConfig::default()));
    });
    report("search", &samples);
    let samples = time_n(iters(5, 1), || {
        std::hint::black_box(hive.discover_communities());
    });
    report("communities", &samples);
}

fn bench_peer_scaling() {
    header("platform_peer_scaling");
    report_header();
    let world = WorldBuilder::new(SimConfig::medium()).build();
    let hive = Hive::new(world.db);
    let zach = hive.db().user_ids()[0];
    let _ = hive.knowledge(); // warm
    // A wide candidate pool makes the per-peer evidence pass the
    // dominant cost (a served request scores 25 candidates).
    let cfg = PeerRecConfig::defaults().with_candidate_pool(60);
    let samples = time_n(iters(10, 3), || {
        std::hint::black_box(hive.recommend_peers(zach, cfg));
    });
    report("recommend_peers_pool60", &samples);
}

fn bench_explain_cache() {
    header("platform_explain");
    report_header();
    let world = WorldBuilder::new(SimConfig::medium()).build();
    let hive = Hive::new(world.db);
    let users = hive.db().user_ids();
    let (a, b) = (users[0], users[1]);
    let kn = hive.knowledge();
    let n = iters(10, 3);
    // Pre-cache behaviour: every explanation rebuilt the relationship
    // store and its adjacency from scratch.
    let cold = time_n(n, || {
        let store = kn.to_store(hive.db());
        std::hint::black_box(explain_relationship(hive.db(), &kn, &store, a, b, 3));
    });
    report("cold_rebuild_store", &cold);
    let _ = hive.explain_relationship(a, b); // warm the generation-keyed cache
    let warm = time_n(n, || {
        std::hint::black_box(hive.explain_relationship(a, b));
    });
    report("warm_graph_view", &warm);
    metric("explain_warm_speedup", mean(&cold) / mean(&warm));
}

fn main() {
    println!("bench_platform — end-to-end platform benchmarks");
    bench_world_build();
    bench_knowledge_build();
    bench_services();
    bench_peer_scaling();
    bench_explain_cache();
    write_json_fragment("bench_platform");
}
