//! Figure 3 regeneration: the multi-layer dynamic knowledge network —
//! per-layer inventory (nodes/edges), the concept-layer alignment
//! quality matrix (§2.2's imprecise alignment), the integrated-network
//! statistics, and the lexical-vs-structural alignment ablation.
//!
//! Run: `cargo run -p hive-bench --release --bin fig3_layers`

use hive_bench::{header, row};
use hive_concept::{bootstrap_concept_map, diff_maps, AlignConfig, BootstrapConfig};
use hive_core::knowledge::{
    citation_graph, coauthor_graph, concept_layers, social_graph, KnowledgeNetwork,
};
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_store::StoreStats;

fn main() {
    let world = WorldBuilder::new(SimConfig::medium()).build();
    let kn = KnowledgeNetwork::build(&world.db);
    let concepts = concept_layers(&world.db);
    println!("Figure 3 — layers of the dynamic Hive knowledge network");

    header("Graph layers");
    row(&["layer".into(), "nodes".into(), "edges".into()]);
    let db = &world.db;
    for (name, g) in [
        ("social (connections+follows)", social_graph(db)),
        ("co-authorship", coauthor_graph(db)),
        ("citation", citation_graph(db)),
    ] {
        row(&[
            name.to_string(),
            g.node_count().to_string(),
            g.edge_count().to_string(),
        ]);
    }
    row(&[
        "unified (all layers fused)".to_string(),
        kn.csr.node_count().to_string(),
        kn.csr.edge_count().to_string(),
    ]);

    header("Concept-map layers (bootstrapped from content)");
    row(&["layer".into(), "concepts".into(), "relations".into(), "weight".into()]);
    for (name, c, r, w) in concepts.inventory() {
        row(&[name, c.to_string(), r.to_string(), format!("{w:.1}")]);
    }

    header("Alignment quality matrix (mean link score)");
    let m = concepts.alignment_matrix();
    let names: Vec<String> = concepts.inventory().into_iter().map(|(n, ..)| n).collect();
    let mut head = vec![String::new()];
    head.extend(names.iter().cloned());
    row(&head);
    for (i, name) in names.iter().enumerate() {
        let mut cells = vec![name.clone()];
        cells.extend(m[i].iter().map(|v| format!("{v:.3}")));
        row(&cells);
    }

    header("Ablation: lexical-only vs lexical+structural alignment");
    row(&["variant".into(), "links".into(), "mean score".into()]);
    let layers: Vec<_> = concepts.layers().map(|(_, l)| l.map.clone()).collect();
    if layers.len() >= 2 {
        for (label, cfg) in [
            ("lexical only", AlignConfig { use_structure: false, ..Default::default() }),
            ("lexical + structural", AlignConfig::default()),
        ] {
            let al = hive_concept::align_maps(&layers[0], &layers[1], cfg);
            row(&[
                label.to_string(),
                al.links.len().to_string(),
                format!("{:.3}", al.mean_score()),
            ]);
        }
    }

    header("Dynamic evolution: papers layer before/after the next edition lands");
    // Bootstrap the papers concept layer from edition 0 only, then from
    // editions 0+1, and diff — the "dynamically evolving knowledge
    // structures" of the paper's core claim.
    let texts_of = |confs: &[hive_core::ids::ConferenceId]| -> Vec<String> {
        confs
            .iter()
            .flat_map(|&c| world.db.papers_at(c).to_vec())
            .map(|p| world.db.get_paper(p).expect("exists").text())
            .collect()
    };
    let before_texts = texts_of(&world.conferences[..1]);
    let after_texts = texts_of(&world.conferences[..2]);
    let before_refs: Vec<&str> = before_texts.iter().map(String::as_str).collect();
    let after_refs: Vec<&str> = after_texts.iter().map(String::as_str).collect();
    let before = bootstrap_concept_map("papers", &before_refs, BootstrapConfig::default());
    let after = bootstrap_concept_map("papers", &after_refs, BootstrapConfig::default());
    let delta = diff_maps(&before, &after, 0.05);
    row(&["metric".into(), "value".into()]);
    row(&["concepts before".into(), before.concept_count().to_string()]);
    row(&["concepts after".into(), after.concept_count().to_string()]);
    row(&["concepts added".into(), delta.added_concepts.len().to_string()]);
    row(&["concepts removed".into(), delta.removed_concepts.len().to_string()]);
    row(&["relations added".into(), delta.added_relations.len().to_string()]);
    row(&["change magnitude".into(), format!("{:.1}", delta.magnitude())]);

    header("Integrated network as weighted RDF (R2DB export)");
    let store = concepts.export_store().expect("valid export");
    let n = store.len();
    let relationship_store = kn.to_store(&world.db);
    println!("concept-network triples exported: {n}");
    let stats = StoreStats::compute(&relationship_store);
    println!(
        "relationship store: {} triples, {} subjects, {} predicates, mean weight {:.2}",
        stats.triples,
        stats.subjects,
        stats.per_predicate.len(),
        stats.mean_weight
    );
    row(&["predicate".into(), "triples".into()]);
    for (pred, count) in stats.predicate_table(&relationship_store).into_iter().take(12) {
        row(&[pred, count.to_string()]);
    }
}
