//! Querying the knowledge network directly: export the platform's
//! relationship layers into the weighted RDF store, run SPARQL-flavored
//! queries over them, explore ranked paths, and snapshot/restore the
//! whole platform.
//!
//! Run: `cargo run -p hive-core --example knowledge_queries`

use hive_core::knowledge::KnowledgeNetwork;
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::HiveDb;
use hive_store::{run_query, PathQuery, StoreStats, Term};

fn main() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let kn = KnowledgeNetwork::build(&world.db);
    let store = kn.to_store(&world.db);
    let stats = StoreStats::compute(&store);
    println!(
        "knowledge store: {} triples, {} predicates",
        stats.triples,
        stats.per_predicate.len()
    );

    // --- SPARQL-flavored queries -----------------------------------------
    println!("\nco-authors of user:0 and what they wrote:");
    let rows = run_query(
        &store,
        "SELECT ?who ?paper WHERE {
             <user:0> <rel:coauthor> ?who .
             ?who <rel:authored> ?paper
         } LIMIT 5",
    )
    .expect("valid query");
    for r in &rows {
        println!("  {} wrote {} (strength {:.2})", r.values[0], r.values[1], r.score);
    }
    if rows.is_empty() {
        println!("  (user:0 has no co-authors in this seed — try another)");
    }

    println!("\nstrong co-author pairs (weight >= 0.6):");
    for r in run_query(
        &store,
        "SELECT ?a ?b WHERE { ?a <rel:coauthor> ?b [0.6] } LIMIT 5",
    )
    .expect("valid query")
    {
        println!("  {} -- {}", r.values[0], r.values[1]);
    }

    println!("\nwho checked into sessions that host presentations:");
    for r in run_query(
        &store,
        "SELECT ?who ?session WHERE {
             ?who <rel:checked_in> ?session .
             ?paper <rel:presented_in> ?session
         } LIMIT 5",
    )
    .expect("valid query")
    {
        println!("  {} was in {}", r.values[0], r.values[1]);
    }

    // --- Ranked paths (the Figure 2 primitive) ----------------------------
    let users = world.db.user_ids();
    let (a, b) = (users[0], users[users.len() / 2]);
    println!("\nstrongest connections {} -> {}:", a.iri(), b.iri());
    match PathQuery::new(Term::iri(a.iri()), Term::iri(b.iri()))
        .top_k(3)
        .run(&store)
    {
        Ok(paths) if !paths.is_empty() => {
            for (i, p) in paths.iter().enumerate() {
                println!("  {}. [{:.3}] {}", i + 1, p.score, p.explain(store.dict()));
            }
        }
        _ => println!("  no path within 4 hops"),
    }

    // --- Platform persistence ----------------------------------------------
    let json = world.db.to_json().expect("serializes");
    let restored = HiveDb::from_json(&json).expect("restores");
    println!(
        "\nplatform snapshot: {} bytes of JSON; restored {} users, {} log records",
        json.len(),
        restored.user_ids().len(),
        restored.activity_log().len()
    );
    // The restored platform derives the identical knowledge network.
    let kn2 = KnowledgeNetwork::build(&restored);
    let store2 = kn2.to_store(&restored);
    println!(
        "restored knowledge store: {} triples ({})",
        store2.len(),
        if store2.len() == store.len() { "identical" } else { "MISMATCH" }
    );
}
