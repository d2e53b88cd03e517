//! E6 — R2DB substrate microbenchmarks: ingest throughput, pattern scan,
//! BGP join, and top-k ranked path latency vs store size.
//!
//! Run: `cargo bench -p hive-bench --bench bench_store`

use hive_bench::{
    header, iters, mean, metric, report, report_header, time_n, time_once, write_json_fragment,
};
use hive_rng::Rng;
use hive_store::{BgpQuery, PathQuery, Pattern, PatternTerm, Term, TripleStore};

fn build_store(n_triples: usize, seed: u64) -> TripleStore {
    let mut st = TripleStore::new();
    let mut rng = Rng::seed_from_u64(seed);
    let n_nodes = (n_triples / 4).max(10);
    let preds = ["rel:coauthor", "rel:cites", "rel:checked_in", "rel:follows"];
    for _ in 0..n_triples {
        let s = rng.gen_range(0..n_nodes);
        let o = rng.gen_range(0..n_nodes);
        let p = preds[rng.gen_range(0..preds.len())];
        st.insert(
            Term::iri(format!("user:{s}")),
            Term::iri(p),
            Term::iri(format!("user:{o}")),
            rng.gen_range(0.1..1.0),
        )
        .expect("valid triple");
    }
    st
}

fn bench_ingest() {
    header("store_ingest");
    report_header();
    for (size, n) in [(1_000usize, 20), (10_000, 5)] {
        let samples = time_n(iters(n, 2), || {
            std::hint::black_box(build_store(size, 1));
        });
        report(&format!("{size}_triples"), &samples);
    }
}

fn bench_scan() {
    header("store_scan");
    report_header();
    let st = build_store(10_000, 2);
    let subject = Term::iri("user:5");
    let pred = Term::iri("rel:cites");
    let samples = time_n(iters(200, 20), || {
        std::hint::black_box(st.triples_matching(Some(&subject), None, None).count());
    });
    report("by_subject", &samples);
    let samples = time_n(iters(50, 10), || {
        std::hint::black_box(st.triples_matching(None, Some(&pred), None).count());
    });
    report("by_predicate", &samples);
}

fn bench_count() {
    header("store_count");
    report_header();
    let st = build_store(10_000, 5);
    let pred = st.dict().get(&Term::iri("rel:cites")).expect("interned predicate");
    let n = iters(200, 20);
    let scan = time_n(n, || {
        std::hint::black_box(st.scan_ids(None, Some(pred), None).len());
    });
    report("scan_then_len", &scan);
    let count = time_n(n, || {
        std::hint::black_box(st.count_ids(None, Some(pred), None));
    });
    report("count_prefix", &count);
    metric("count_prefix_speedup", mean(&scan) / mean(&count));
}

fn bench_bgp() {
    header("store_bgp");
    report_header();
    let st = build_store(10_000, 3);
    // Two-hop join: who co-authors with a citer of user:7?
    let q = BgpQuery::new()
        .pattern(Pattern::new(
            PatternTerm::var("x"),
            PatternTerm::bound(Term::iri("rel:cites")),
            PatternTerm::bound(Term::iri("user:7")),
        ))
        .pattern(Pattern::new(
            PatternTerm::var("x"),
            PatternTerm::bound(Term::iri("rel:coauthor")),
            PatternTerm::var("y"),
        ))
        .limit(50);
    let samples = time_n(iters(50, 5), || {
        std::hint::black_box(q.evaluate(&st).len());
    });
    report("two_hop_join", &samples);
}

fn bench_paths() {
    header("store_ranked_paths");
    report_header();
    for (size, n) in [(2_000usize, 20), (10_000, 5)] {
        let st = build_store(size, 4);
        let q = PathQuery::new(Term::iri("user:1"), Term::iri("user:2"))
            .top_k(3)
            .max_hops(4);
        // The warm case runs the same query against a pre-built
        // GraphView snapshot: what the facade's generation-keyed cache
        // saves on repeated queries. Cold and warm samples are
        // interleaved (after one unmeasured warmup of each) so cache
        // state and clock drift land on both alike — sampling all cold
        // runs first systematically flattered whichever loop ran
        // second and could report warm as slower than cold.
        let view = hive_store::GraphView::build(&st);
        let runs = iters(n, 2);
        let mut cold = Vec::with_capacity(runs);
        let mut warm = Vec::with_capacity(runs);
        std::hint::black_box(q.run(&st).ok());
        std::hint::black_box(q.run_on(st.dict(), &view).ok());
        for _ in 0..runs {
            let ((), c) = time_once(|| {
                std::hint::black_box(q.run(&st).ok());
            });
            cold.push(c);
            let ((), w) = time_once(|| {
                std::hint::black_box(q.run_on(st.dict(), &view).ok());
            });
            warm.push(w);
        }
        report(&format!("{size}_triples"), &cold);
        report(&format!("{size}_triples_warm_view"), &warm);
        metric(&format!("warm_view_speedup_{size}"), mean(&cold) / mean(&warm));
    }
}

fn main() {
    println!("bench_store — R2DB substrate microbenchmarks");
    bench_ingest();
    bench_scan();
    bench_count();
    bench_bgp();
    bench_paths();
    write_json_fragment("bench_store");
}
