//! Compressed-sparse-row (CSR) snapshot of a [`Graph`].
//!
//! The dynamic [`Graph`] stores per-node `Vec`s of edges — convenient
//! for incremental construction, hostile to the tight loops of power
//! iteration. [`CsrView`] flattens the **incoming** adjacency into
//! three parallel arrays (offsets / sources / pull coefficients), the
//! layout used by shared-memory graph engines (Ligra) and in-memory RDF
//! stores (RDF-3X): one cache-friendly sweep per iteration, and a
//! *pull* orientation in which every node's next rank is one ordered sum
//! over its in-edges, written once — so a sweep needs no scatter and its
//! output bits depend only on the edge order fixed here.
//!
//! Build once per graph snapshot and reuse across queries; callers that
//! cache a `CsrView` (e.g. the knowledge network) skip the rebuild on
//! every ranking call.

use crate::graph::Graph;

/// Immutable CSR snapshot of a graph's incoming adjacency, prepared for
/// pull-based PageRank-style iteration.
#[derive(Clone, Debug, Default)]
pub struct CsrView {
    /// `in_off[v]..in_off[v+1]` indexes `v`'s incoming edges.
    pub(crate) in_off: Vec<u32>,
    /// Source node index of each incoming edge.
    pub(crate) in_src: Vec<u32>,
    /// Pull coefficient of each incoming edge: `w(u→v) / out_weight(u)`.
    pub(crate) in_coef: Vec<f64>,
    /// Total outgoing edge weight per node (0 ⇒ dangling).
    pub(crate) out_weight: Vec<f64>,
}

impl CsrView {
    /// Flattens `g`'s incoming adjacency. Edge order within a node is
    /// the graph's insertion order, so repeated builds of the same
    /// graph are identical.
    pub fn build(g: &Graph) -> Self {
        let n = g.node_count();
        let out_weight: Vec<f64> = g.nodes().map(|u| g.out_weight(u)).collect();
        let mut in_off = Vec::with_capacity(n + 1);
        let mut in_src = Vec::with_capacity(g.edge_count());
        let mut in_coef = Vec::with_capacity(g.edge_count());
        in_off.push(0u32);
        for v in g.nodes() {
            for e in g.in_edges(v) {
                let u = e.neighbor.index();
                in_src.push(u as u32);
                // Every in-edge has a source with outgoing weight > 0.
                in_coef.push(e.weight / out_weight[u]);
            }
            in_off.push(in_src.len() as u32);
        }
        CsrView { in_off, in_src, in_coef, out_weight }
    }

    /// Number of nodes in the snapshot.
    pub fn node_count(&self) -> usize {
        self.out_weight.len()
    }

    /// Number of (directed) edges in the snapshot.
    pub fn edge_count(&self) -> usize {
        self.in_src.len()
    }

    /// True if the snapshot has no nodes.
    pub fn is_empty(&self) -> bool {
        self.out_weight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_flattens_incoming_edges() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 3.0);
        g.add_edge(a, c, 1.0);
        g.add_edge(b, c, 2.0);
        let csr = CsrView::build(&g);
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.edge_count(), 3);
        // a has no in-edges; b one from a; c from a and b.
        assert_eq!(&csr.in_off, &[0, 0, 1, 3]);
        assert_eq!(csr.in_src[0], a.index() as u32);
        // coef of a→b is 3/(3+1).
        assert!((csr.in_coef[0] - 0.75).abs() < 1e-12);
        assert_eq!(csr.out_weight[c.index()], 0.0);
    }
}
