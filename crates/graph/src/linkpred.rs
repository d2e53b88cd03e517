//! Link-prediction scores over the symmetrized neighbor sets.
//!
//! Hive's evidence engine uses these as "indirect" relationship signals
//! (e.g. *citing the same paper*, *attending the same sessions* — both are
//! common-neighbor structures in the respective layers).

use crate::graph::{Graph, NodeId};
use std::collections::HashSet;

fn neighbor_set(g: &Graph, u: NodeId) -> HashSet<NodeId> {
    g.out_edges(u)
        .map(|e| e.neighbor)
        .chain(g.in_edges(u).map(|e| e.neighbor))
        .filter(|&n| n != u)
        .collect()
}

/// Number of common (symmetrized) neighbors of `u` and `v`.
pub fn common_neighbors(g: &Graph, u: NodeId, v: NodeId) -> usize {
    let nu = neighbor_set(g, u);
    let nv = neighbor_set(g, v);
    nu.intersection(&nv).count()
}

/// Jaccard similarity of neighbor sets, in `[0, 1]`.
pub fn jaccard(g: &Graph, u: NodeId, v: NodeId) -> f64 {
    let nu = neighbor_set(g, u);
    let nv = neighbor_set(g, v);
    let inter = nu.intersection(&nv).count();
    let union = nu.union(&nv).count();
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Adamic–Adar score: common neighbors weighted by inverse log-degree,
/// so rare shared contacts count more than hubs. The terms are summed in
/// ascending node order, so the result's bits do not depend on the sets'
/// storage order.
pub fn adamic_adar(g: &Graph, u: NodeId, v: NodeId) -> f64 {
    let nu = neighbor_set(g, u);
    let nv = neighbor_set(g, v);
    let mut common: Vec<NodeId> = nu.intersection(&nv).copied().collect();
    common.sort_unstable();
    common
        .into_iter()
        .map(|z| {
            let deg = neighbor_set(g, z).len();
            if deg > 1 {
                1.0 / (deg as f64).ln()
            } else {
                // Degree-1 shared neighbor: strongest possible signal;
                // cap instead of dividing by ln(1) = 0.
                2.0
            }
        })
        .sum()
}

/// Preferential-attachment score: product of degrees.
pub fn preferential_attachment(g: &Graph, u: NodeId, v: NodeId) -> f64 {
    (neighbor_set(g, u).len() * neighbor_set(g, v).len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// u and v share z1, z2; v additionally knows w; hub h knows everyone.
    fn fixture() -> (Graph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let u = g.add_node("u");
        let v = g.add_node("v");
        let z1 = g.add_node("z1");
        let z2 = g.add_node("z2");
        let w = g.add_node("w");
        g.add_undirected_edge(u, z1, 1.0);
        g.add_undirected_edge(u, z2, 1.0);
        g.add_undirected_edge(v, z1, 1.0);
        g.add_undirected_edge(v, z2, 1.0);
        g.add_undirected_edge(v, w, 1.0);
        (g, u, v, z1, w)
    }

    #[test]
    fn common_neighbors_counts() {
        let (g, u, v, _, _) = fixture();
        assert_eq!(common_neighbors(&g, u, v), 2);
    }

    #[test]
    fn jaccard_value() {
        let (g, u, v, _, _) = fixture();
        // |{z1,z2}| / |{z1,z2,w}| = 2/3.
        assert!((jaccard(&g, u, v) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_empty_sets() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        assert_eq!(jaccard(&g, a, b), 0.0);
    }

    #[test]
    fn adamic_adar_prefers_rare_contacts() {
        let (mut g, u, v, z1, _) = fixture();
        let base = adamic_adar(&g, u, v);
        // Turn z1 into a hub: its contribution should drop.
        for i in 0..10 {
            let extra = g.add_node(format!("extra{i}"));
            g.add_undirected_edge(z1, extra, 1.0);
        }
        let after = adamic_adar(&g, u, v);
        assert!(after < base, "hubifying a shared neighbor lowers AA: {after} < {base}");
    }

    #[test]
    fn adamic_adar_bits_repeat() {
        // u and v share five neighbors, of degrees 2 to 6.
        let mut g = Graph::new();
        let u = g.add_node("u");
        let v = g.add_node("v");
        for i in 0..5 {
            let z = g.add_node(format!("z{i}"));
            g.add_undirected_edge(u, z, 1.0);
            g.add_undirected_edge(v, z, 1.0);
            for j in 0..i {
                let leaf = g.add_node(format!("z{i}.{j}"));
                g.add_undirected_edge(z, leaf, 1.0);
            }
        }
        let first = adamic_adar(&g, u, v).to_bits();
        for _ in 0..64 {
            assert_eq!(adamic_adar(&g, u, v).to_bits(), first, "sum order moved the bits");
        }
    }

    #[test]
    fn directed_edges_are_symmetrized() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let z = g.add_node("z");
        g.add_edge(a, z, 1.0); // a -> z
        g.add_edge(z, b, 1.0); // z -> b
        assert_eq!(common_neighbors(&g, a, b), 1);
    }

    #[test]
    fn preferential_attachment_value() {
        let (g, u, v, _, _) = fixture();
        assert_eq!(preferential_attachment(&g, u, v), 6.0); // 2 * 3
    }

    #[test]
    fn self_loops_excluded_from_neighbor_sets() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_undirected_edge(a, a, 1.0);
        g.add_undirected_edge(a, b, 1.0);
        assert_eq!(common_neighbors(&g, a, b), 0);
        assert!((jaccard(&g, a, b) - 0.0).abs() < 1e-12 || jaccard(&g, a, b) >= 0.0);
    }
}
