//! Weakly connected components.

use crate::graph::Graph;
use std::collections::VecDeque;

/// Weakly connected components (edges treated as undirected).
///
/// Returns a component id per node; ids are dense, assigned in order of
/// first discovery.
pub fn connected_components(g: &Graph) -> Vec<usize> {
    let n = g.node_count();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    for s in g.nodes() {
        if comp[s.index()] != usize::MAX {
            continue;
        }
        let id = next;
        next += 1;
        let mut queue = VecDeque::new();
        comp[s.index()] = id;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for e in g.out_edges(u).chain(g.in_edges(u)) {
                if comp[e.neighbor.index()] == usize::MAX {
                    comp[e.neighbor.index()] = id;
                    queue.push_back(e.neighbor);
                }
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_respect_direction_weakly() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1.0);
        g.add_edge(d, c, 1.0);
        let comp = connected_components(&g);
        assert_eq!(comp[a.index()], comp[b.index()]);
        assert_eq!(comp[c.index()], comp[d.index()]);
        assert_ne!(comp[a.index()], comp[c.index()]);
    }

    #[test]
    fn singleton_components() {
        let mut g = Graph::new();
        g.add_node("x");
        g.add_node("y");
        let comp = connected_components(&g);
        assert_eq!(comp, vec![0, 1]);
    }
}
