//! Dynamic directed weighted graph with string-keyed node interning.
//!
//! Every Hive knowledge layer (social, co-authorship, citation, activity)
//! is a weighted graph over entity keys; this structure is the shared
//! in-memory representation. Parallel edges are merged by summing weights
//! (repeated interactions strengthen a relationship).

use std::collections::HashMap;

/// Dense node identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A borrowed view of one outgoing or incoming edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeRef {
    /// The neighbor on the other side of the edge.
    pub neighbor: NodeId,
    /// Edge weight (> 0).
    pub weight: f64,
}

/// Directed weighted graph. Node keys are interned strings (entity IRIs
/// in practice); parallel edge insertions accumulate weight.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    keys: Vec<String>,
    by_key: HashMap<String, NodeId>,
    out: Vec<Vec<(NodeId, f64)>>,
    inc: Vec<Vec<(NodeId, f64)>>,
    edge_count: usize,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `key`, creating the node if needed.
    pub fn add_node(&mut self, key: impl Into<String>) -> NodeId {
        let key = key.into();
        if let Some(&id) = self.by_key.get(&key) {
            return id;
        }
        // Capacity invariant: node ids are u32; see TermDict::intern for
        // the same rationale.
        let id = NodeId(u32::try_from(self.keys.len()).expect("node id overflow")); // lint:allow(no-panic-paths)
        self.by_key.insert(key.clone(), id);
        self.keys.push(key);
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        id
    }

    /// Looks up a node by key without inserting.
    pub fn node(&self, key: &str) -> Option<NodeId> {
        self.by_key.get(key).copied()
    }

    /// The key of a node.
    pub fn key(&self, id: NodeId) -> &str {
        &self.keys[id.index()]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of directed edges (after merging parallels).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds (or strengthens) a directed edge `u -> v` by `weight`.
    ///
    /// Panics if `weight` is not finite and positive.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: f64) {
        assert!(
            weight.is_finite() && weight > 0.0,
            "edge weight must be finite and positive, got {weight}"
        );
        if let Some(slot) = self.out[u.index()].iter_mut().find(|(n, _)| *n == v) {
            slot.1 += weight;
            // The in-adjacency mirror must hold a matching entry; if it
            // ever drifted, re-creating it here repairs the invariant
            // instead of panicking.
            match self.inc[v.index()].iter_mut().find(|(n, _)| *n == u) {
                Some(back) => back.1 += weight,
                None => self.inc[v.index()].push((u, weight)),
            }
        } else {
            self.out[u.index()].push((v, weight));
            self.inc[v.index()].push((u, weight));
            self.edge_count += 1;
        }
    }

    /// Adds (or strengthens) the edge in both directions.
    pub fn add_undirected_edge(&mut self, u: NodeId, v: NodeId, weight: f64) {
        self.add_edge(u, v, weight);
        if u != v {
            self.add_edge(v, u, weight);
        }
    }

    /// Weight of edge `u -> v`, if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.out[u.index()].iter().find(|(n, _)| *n == v).map(|(_, w)| *w)
    }

    /// Outgoing edges of `u`.
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        self.out[u.index()]
            .iter()
            .map(|&(neighbor, weight)| EdgeRef { neighbor, weight })
    }

    /// Incoming edges of `u`.
    pub fn in_edges(&self, u: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        self.inc[u.index()]
            .iter()
            .map(|&(neighbor, weight)| EdgeRef { neighbor, weight })
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out[u.index()].len()
    }

    /// In-degree of `u`.
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.inc[u.index()].len()
    }

    /// Sum of outgoing edge weights of `u`.
    pub fn out_weight(&self, u: NodeId) -> f64 {
        self.out[u.index()].iter().map(|(_, w)| w).sum()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.keys.len() as u32).map(NodeId)
    }

    /// All directed edges as `(u, v, weight)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.nodes().flat_map(move |u| {
            self.out[u.index()].iter().map(move |&(v, w)| (u, v, w))
        })
    }

    /// Total edge weight.
    pub fn total_weight(&self) -> f64 {
        self.edges().map(|(_, _, w)| w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let a2 = g.add_node("a");
        assert_eq!(a, a2);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.key(a), "a");
        assert_eq!(g.node("a"), Some(a));
        assert_eq!(g.node("b"), None);
    }

    #[test]
    fn parallel_edges_merge() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 1.0);
        g.add_edge(a, b, 0.5);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(a, b), Some(1.5));
        // In-adjacency mirrors the merge.
        let inc: Vec<_> = g.in_edges(b).collect();
        assert_eq!(inc.len(), 1);
        assert!((inc[0].weight - 1.5).abs() < 1e-12);
    }

    #[test]
    fn undirected_edge_adds_both_directions() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_undirected_edge(a, b, 2.0);
        assert_eq!(g.edge_weight(a, b), Some(2.0));
        assert_eq!(g.edge_weight(b, a), Some(2.0));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn self_loop_undirected_added_once() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        g.add_undirected_edge(a, a, 1.0);
        assert_eq!(g.edge_weight(a, a), Some(1.0));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "edge weight")]
    fn zero_weight_rejected() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 0.0);
    }

    #[test]
    fn degrees_and_weights() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 1.0);
        g.add_edge(a, c, 2.0);
        g.add_edge(b, c, 4.0);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(c), 2);
        assert!((g.out_weight(a) - 3.0).abs() < 1e-12);
        assert!((g.total_weight() - 7.0).abs() < 1e-12);
        assert_eq!(g.edges().count(), 3);
    }
}
