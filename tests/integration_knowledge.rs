//! Cross-crate integration: the knowledge pipeline — platform DB ->
//! layered knowledge network -> weighted RDF store -> ranked paths ->
//! evidence, and concept layers -> alignment -> propagation.

use hive_concept::propagate::{top_activated, PropagationConfig};
use hive_core::evidence::{combined_score, relationship_evidence};
use hive_core::knowledge::{concept_layers, KnowledgeNetwork};
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_store::{PathQuery, StoreStats, Term, TripleStore};
use std::collections::HashMap;

#[test]
fn knowledge_network_round_trips_through_the_store() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let kn = KnowledgeNetwork::build(&world.db);
    let store = kn.to_store(&world.db);
    assert!(store.len() > 100, "store should be populated, got {}", store.len());
    assert!(store.check_invariants());
    // Snapshot round trip preserves everything.
    let json = store.to_json().expect("serializable");
    let restored = TripleStore::from_json(&json).expect("parses");
    assert_eq!(restored.len(), store.len());
    let stats = StoreStats::compute(&restored);
    assert!(stats.per_predicate.len() >= 5, "several relationship predicates");
}

#[test]
fn coauthors_are_connected_by_short_strong_paths() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let kn = KnowledgeNetwork::build(&world.db);
    let store = kn.to_store(&world.db);
    let paper = world
        .db
        .paper_ids()
        .into_iter()
        .map(|p| world.db.get_paper(p).unwrap().clone())
        .find(|p| p.authors.len() >= 2)
        .expect("multi-author paper");
    let paths = PathQuery::new(
        Term::iri(paper.authors[0].iri()),
        Term::iri(paper.authors[1].iri()),
    )
    .top_k(3)
    .run(&store)
    .expect("both in store");
    assert!(!paths.is_empty());
    for w in paths.windows(2) {
        assert!(w[0].score >= w[1].score);
    }
    // Restricted to the co-authorship layer, the direct edge is the
    // single-hop strongest path.
    let direct = PathQuery::new(
        Term::iri(paper.authors[0].iri()),
        Term::iri(paper.authors[1].iri()),
    )
    .over_predicates(vec![Term::iri("rel:coauthor")])
    .run(&store)
    .expect("both in store");
    assert_eq!(direct[0].hops(), 1, "direct co-author edge wins in-layer");
}

#[test]
fn evidence_agrees_with_planted_topics() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let kn = KnowledgeNetwork::build(&world.db);
    // Average same-topic vs cross-topic evidence over a few pairs.
    let mut same = Vec::new();
    let mut cross = Vec::new();
    let c0 = &world.planted_communities[0];
    let c1 = &world.planted_communities[1];
    for i in 0..3.min(c0.len() - 1) {
        same.push(combined_score(&relationship_evidence(
            &world.db, &kn, c0[i], c0[i + 1],
        )));
        cross.push(combined_score(&relationship_evidence(
            &world.db, &kn, c0[i], c1[i],
        )));
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        avg(&same) > avg(&cross),
        "same-topic pairs carry more evidence: {} vs {}",
        avg(&same),
        avg(&cross)
    );
}

#[test]
fn concept_layers_propagate_across_alignment() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let concepts = concept_layers(&world.db);
    assert_eq!(concepts.layer_count(), 2);
    let g = concepts.integrated_graph(0.9);
    assert!(g.node_count() > 0);
    // Seed from the most significant paper concept; activation should
    // reach at least one other node (its neighborhood).
    let (lid, layer) = concepts.layers().next().expect("papers layer");
    if let Some((top, _)) = layer.map.top_concepts(1).first() {
        let mut seeds = HashMap::new();
        seeds.insert(concepts.node_key(lid, top), 1.0);
        let activated = top_activated(&g, &seeds, 10, PropagationConfig::default());
        assert!(
            !activated.is_empty(),
            "propagation reaches beyond the seed concept"
        );
    }
}

#[test]
fn unified_graph_is_mostly_connected() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let kn = KnowledgeNetwork::build(&world.db);
    // The unified layer as a `Graph` over its nodes' IRIs, built on
    // demand from the CSR rows (each row lists a node's neighbours).
    let mut g = hive_graph::Graph::new();
    for i in 0..kn.layout.node_count() as u32 {
        g.add_node(kn.layout.iri(hive_graph::NodeId(i)).expect("in range"));
    }
    for v in g.nodes().collect::<Vec<_>>() {
        for e in kn.csr.in_edges(v) {
            g.add_edge(e.neighbor, v, e.weight);
        }
    }
    let comp = hive_graph::connected_components(&g);
    let mut sizes: HashMap<usize, usize> = HashMap::new();
    for c in &comp {
        *sizes.entry(*c).or_insert(0) += 1;
    }
    let largest = sizes.values().copied().max().unwrap_or(0);
    assert!(
        largest as f64 >= comp.len() as f64 * 0.9,
        "the fused network should form one giant component ({largest}/{})",
        comp.len()
    );
}
