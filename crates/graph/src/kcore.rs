//! k-core decomposition over the symmetrized graph.
//!
//! Hive uses core numbers to find the *active core* of a community (the
//! researchers who keep the exchanges going): a node's core number is
//! the largest k such that it survives in the subgraph where everyone
//! has degree >= k.

use crate::graph::Graph;
use std::collections::HashSet;

/// Core number per node (unweighted degrees over the symmetrized graph;
/// parallel directions count once).
pub fn core_numbers(g: &Graph) -> Vec<usize> {
    let n = g.node_count();
    // Symmetrized simple adjacency.
    let mut adj: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    for (u, v, _) in g.edges() {
        if u != v {
            adj[u.index()].insert(v.index());
            adj[v.index()].insert(u.index());
        }
    }
    let mut degree: Vec<usize> = adj.iter().map(HashSet::len).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0);
    // Bucket queue (standard O(V + E) peeling).
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_deg + 1];
    for (v, &d) in degree.iter().enumerate() {
        buckets[d].push(v);
    }
    let mut core = vec![0usize; n];
    let mut removed = vec![false; n];
    let mut k = 0usize;
    for d in 0..=max_deg {
        let mut queue = std::mem::take(&mut buckets[d]);
        while let Some(v) = queue.pop() {
            if removed[v] || degree[v] > d {
                // Stale bucket entry (degree changed since insertion).
                if !removed[v] && degree[v] > d {
                    buckets[degree[v]].push(v);
                }
                continue;
            }
            k = k.max(d);
            core[v] = k;
            removed[v] = true;
            let nbrs: Vec<usize> = adj[v].iter().copied().collect();
            for u in nbrs {
                if !removed[u] && degree[u] > d {
                    degree[u] -= 1;
                    if degree[u] == d {
                        queue.push(u);
                    } else {
                        buckets[degree[u]].push(u);
                    }
                }
            }
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;

    /// A 4-clique with two pendant chains hanging off it.
    fn clique_with_tails() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let ids: Vec<_> = (0..8).map(|i| g.add_node(format!("n{i}"))).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_undirected_edge(ids[i], ids[j], 1.0);
            }
        }
        g.add_undirected_edge(ids[3], ids[4], 1.0);
        g.add_undirected_edge(ids[4], ids[5], 1.0);
        g.add_undirected_edge(ids[0], ids[6], 1.0);
        g.add_undirected_edge(ids[6], ids[7], 1.0);
        (g, ids)
    }

    #[test]
    fn clique_members_have_core_three() {
        let (g, ids) = clique_with_tails();
        let core = core_numbers(&g);
        for &v in &ids[..4] {
            assert_eq!(core[v.index()], 3, "clique node {v:?}");
        }
        for &v in &ids[4..] {
            assert_eq!(core[v.index()], 1, "tail node {v:?}");
        }
    }

    #[test]
    fn isolated_nodes_have_core_zero() {
        let mut g = Graph::new();
        g.add_node("lonely");
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_undirected_edge(a, b, 1.0);
        let core = core_numbers(&g);
        assert_eq!(core[0], 0);
        assert_eq!(core[1], 1);
        assert_eq!(core[2], 1);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert!(core_numbers(&g).is_empty());
    }

    #[test]
    fn core_numbers_monotone_under_edge_addition() {
        let (mut g, ids) = clique_with_tails();
        let before = core_numbers(&g);
        g.add_undirected_edge(ids[4], ids[6], 1.0);
        let after = core_numbers(&g);
        for (b, a) in before.iter().zip(&after) {
            assert!(a >= b, "core numbers never decrease when edges are added");
        }
    }
}
