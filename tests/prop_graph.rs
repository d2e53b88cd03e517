//! Property tests for the graph substrate, driven by the
//! in-tree seeded runner (`hive_bench::prop`).

use hive_bench::prop::{check, DEFAULT_CASES};
use hive_bench::{prop_ensure, prop_ensure_eq};
use hive_graph::{
    connected_components, core_numbers, diffuse, label_propagation, louvain, modularity,
    personalized_pagerank, DiffusionParams, Graph, NodeId, PprConfig,
};
use hive_rng::Rng;
use std::collections::HashMap;

fn gen_edges(rng: &mut Rng) -> Vec<(u32, u32, f64)> {
    let n = rng.gen_range(0..60usize);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0..15u32),
                rng.gen_range(0..15u32),
                rng.gen_range(1..=100u32) as f64 / 100.0,
            )
        })
        .collect()
}

fn build(edges: &[(u32, u32, f64)]) -> Graph {
    let mut g = Graph::new();
    for i in 0..15 {
        g.add_node(format!("n{i}"));
    }
    for &(a, b, w) in edges {
        g.add_edge(NodeId(a), NodeId(b), w);
    }
    g
}

/// PageRank is a probability distribution and never negative.
#[test]
fn pagerank_is_a_distribution() {
    check("graph::pagerank_is_a_distribution", DEFAULT_CASES, |rng| {
        let g = build(&gen_edges(rng));
        let pr = personalized_pagerank(&g, &HashMap::new(), PprConfig::default());
        let total: f64 = pr.iter().sum();
        prop_ensure!((total - 1.0).abs() < 1e-6, "sum {total}");
        prop_ensure!(pr.iter().all(|&v| v >= 0.0));
        Ok(())
    });
}

/// Personalized PPR gives (almost) zero mass to nodes unreachable from
/// the seed.
#[test]
fn ppr_seed_dominates_unreachable() {
    check("graph::ppr_seed_dominates_unreachable", DEFAULT_CASES, |rng| {
        let g = build(&gen_edges(rng));
        let mut seeds = HashMap::new();
        seeds.insert(NodeId(0), 1.0);
        let ppr = personalized_pagerank(&g, &seeds, PprConfig::default());
        // Reachability under out-edges from node 0.
        let mut seen = vec![false; g.node_count()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for e in g.out_edges(u) {
                if !seen[e.neighbor.index()] {
                    seen[e.neighbor.index()] = true;
                    stack.push(e.neighbor);
                }
            }
        }
        for n in g.nodes() {
            if !seen[n.index()] {
                prop_ensure!(
                    ppr[n.index()] < 1e-9,
                    "unreachable node has rank {}",
                    ppr[n.index()]
                );
            }
        }
        Ok(())
    });
}

/// Diffusion conserves mass (up to truncation loss) and never goes
/// negative.
#[test]
fn diffusion_mass_bounds() {
    check("graph::diffusion_mass_bounds", DEFAULT_CASES, |rng| {
        let g = build(&gen_edges(rng));
        let imp = diffuse(&g, NodeId(0), DiffusionParams { alpha: 0.5, epsilon: 1e-6 });
        let total: f64 = imp.values().sum();
        prop_ensure!(total <= 1.0 + 1e-9, "mass exceeds 1: {total}");
        prop_ensure!(total > 0.5, "too much truncation loss: {total}");
        prop_ensure!(imp.values().all(|&v| v >= 0.0));
        Ok(())
    });
}

/// Community assignments cover every node, and singleton partitions
/// never beat the discovered partition on modularity.
#[test]
fn community_quality() {
    check("graph::community_quality", DEFAULT_CASES, |rng| {
        let g = build(&gen_edges(rng));
        let asg = louvain(&g);
        prop_ensure_eq!(asg.labels().len(), g.node_count());
        let lp = label_propagation(&g, 3, 50);
        prop_ensure_eq!(lp.labels().len(), g.node_count());
        let singletons =
            hive_graph::CommunityAssignment::from_labels((0..g.node_count()).collect());
        prop_ensure!(
            modularity(&g, &asg) >= modularity(&g, &singletons) - 1e-9,
            "louvain at least matches singletons"
        );
        Ok(())
    });
}

/// Connected components: nodes sharing an edge share a component.
#[test]
fn components_respect_edges() {
    check("graph::components_respect_edges", DEFAULT_CASES, |rng| {
        let g = build(&gen_edges(rng));
        let comp = connected_components(&g);
        for (u, v, _) in g.edges() {
            prop_ensure_eq!(comp[u.index()], comp[v.index()]);
        }
        Ok(())
    });
}

/// Core numbers are bounded by the (simple, symmetrized) degree and
/// never decrease when an edge is added.
#[test]
fn kcore_bounds_and_monotonicity() {
    check("graph::kcore_bounds_and_monotonicity", DEFAULT_CASES, |rng| {
        let mut g = build(&gen_edges(rng));
        let a = rng.gen_range(0..15u32);
        let b = rng.gen_range(0..15u32);
        let core = core_numbers(&g);
        for v in g.nodes() {
            let mut nbrs: std::collections::HashSet<NodeId> = g
                .out_edges(v)
                .map(|e| e.neighbor)
                .chain(g.in_edges(v).map(|e| e.neighbor))
                .collect();
            nbrs.remove(&v);
            prop_ensure!(core[v.index()] <= nbrs.len(), "core <= simple degree");
        }
        if a != b {
            g.add_edge(NodeId(a), NodeId(b), 1.0);
            let after = core_numbers(&g);
            for (x, y) in core.iter().zip(&after) {
                prop_ensure!(y >= x, "core numbers are monotone under edge insertion");
            }
        }
        Ok(())
    });
}
