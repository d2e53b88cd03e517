//! Figure 2 regeneration: relationship discovery and explanation between
//! two researchers — the ranked evidence list plus the strongest
//! knowledge-network paths, as the screenshot's right-hand column shows
//! for "K. Selcuk Candan" and "Carsten Griwodz". Also reports ranked-path
//! query latency (the R2DB primitive behind the feature), both with a
//! graph view built per query and over one prebuilt view, which is how
//! `explain_relationship` serves it.
//! The latency table goes to stderr: stdout holds no timing, so it is
//! byte-stable and `tools/ci.sh` diffs it against
//! `results/fig2_relationships.txt`.
//!
//! Run: `cargo run -p hive-bench --release --bin fig2_relationships`

use hive_bench::{fmt_us, header, percentile, row, time_n};
use hive_core::evidence::combined_score;
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::Hive;
use hive_store::{GraphView, PathQuery, Term};

fn main() {
    let world = WorldBuilder::new(SimConfig::medium()).build();
    let hive = Hive::new(world.db);
    let db = hive.db();

    // Pick an interesting pair: co-authors of some multi-author paper.
    let pair = db
        .paper_ids()
        .into_iter()
        .map(|p| db.get_paper(p).expect("exists").clone())
        .find(|p| p.authors.len() >= 2)
        .map(|p| (p.authors[0], p.authors[1]))
        .expect("the simulator produces multi-author papers");
    let (a, b) = pair;
    let name = |u| db.get_user(u).map(|x| x.name.clone()).unwrap_or_default();
    println!(
        "Figure 2 — relationships between \"{}\" and \"{}\"",
        name(a),
        name(b)
    );

    let exp = hive.explain_relationship(a, b);
    header("Rendered Figure 2 panel");
    print!("{}", exp.render(db));
    header("Evidence (ranked)");
    row(&["evidence".into(), "score".into()]);
    for item in &exp.items {
        row(&[item.kind.label().to_string(), format!("{:.3}", item.score)]);
        println!("    {}", item.explanation);
    }
    println!("\ncombined (noisy-or) relationship strength: {:.3}", exp.combined);

    header("Strongest knowledge-network paths");
    for (i, p) in exp.paths.iter().enumerate() {
        println!("  {}. {}", i + 1, p);
    }

    // A weak pair for contrast (different planted topics).
    let weak = world
        .planted_communities
        .iter()
        .skip(1)
        .flatten()
        .copied()
        .find(|&u| u != a && u != b)
        .expect("more than one community");
    let kn = hive.knowledge();
    let weak_items = hive_core::evidence::relationship_evidence(db, &kn, a, weak);
    println!(
        "\ncontrast pair (\"{}\", \"{}\", different topics): combined {:.3} with {} items",
        name(a),
        name(weak),
        combined_score(&weak_items),
        weak_items.len()
    );

    // Ranked path query latency on the exported store. Timings go to
    // stderr, so stdout stays byte-stable and CI can diff it. `run`
    // builds a GraphView per call, so its time is mostly the build;
    // `run_on` is the search alone.
    let store = kn.to_store(db);
    let view = GraphView::build(&store);
    println!("\nstore: {} triples over {} terms", store.len(), store.dict().len());
    eprintln!("\n=== Ranked path query latency (R2DB primitive): p50, p95 ===");
    for k in [1usize, 3, 5] {
        let query = PathQuery::new(Term::iri(a.iri()), Term::iri(b.iri())).top_k(k).max_hops(4);
        let built = time_n(10, || {
            let _ = query.run(&store);
        });
        let shared = time_n(10, || {
            let _ = query.run_on(store.dict(), &view);
        });
        for (how, samples) in [("view built per query", built), ("over one view", shared)] {
            eprintln!(
                "{:<46} {:<14} {}",
                format!("top-{k} paths, <=4 hops, {how}"),
                fmt_us(percentile(&samples, 50.0)),
                fmt_us(percentile(&samples, 95.0)),
            );
        }
    }
}
