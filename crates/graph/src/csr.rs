//! Compressed-sparse-row (CSR) snapshots for the PPR kernel.
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
//! [`UndirectedCsr`] is the same arrays for an undirected graph with no
//! [`Graph`] behind them, plus each in-edge's raw weight, so it can be
//! moved forward in place. In an undirected graph a node's out-row is
//! its in-row, in the same order and with the same weights, so the
//! out-weight a [`Graph`] sums over a node's out-edges is the sum over
//! its own CSR row in row order. [`UndirectedCsr::patch`] adds edges
//! with [`Graph::add_undirected_edge`]'s rule (strengthen a present
//! edge, else append it) on the flat arrays, and a cold build is a patch
//! of the empty graph. Both are bit-identical to [`CsrView::build`] of a
//! [`Graph`] given the same `add_undirected_edge` calls. It has its own
//! type so that a CSR built from a directed graph can never be patched.

use crate::graph::{EdgeRef, Graph, NodeId};
use std::ops::Range;

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

    /// The index range of `v`'s in-edges.
    fn row(&self, v: usize) -> Range<usize> {
        self.in_off[v] as usize..self.in_off[v + 1] as usize
    }

    /// Bitwise comparison against `other`, floats by `to_bits`: the
    /// patch-vs-build oracle of the property tests. Returns the first
    /// difference found.
    pub fn bitwise_diff(&self, other: &CsrView) -> Option<String> {
        if self.in_off != other.in_off {
            return Some("row offsets differ".to_string());
        }
        if self.in_src != other.in_src {
            return Some("edge sources differ".to_string());
        }
        if let Some(i) = first_bit_difference(&self.out_weight, &other.out_weight) {
            return Some(format!("out-weight of node {i} differs"));
        }
        first_bit_difference(&self.in_coef, &other.in_coef)
            .map(|i| format!("pull coefficient of edge {i} differs"))
    }
}

/// The first index at which `a` and `b` differ by bits, or `a.len()`
/// when only their lengths differ.
fn first_bit_difference(a: &[f64], b: &[f64]) -> Option<usize> {
    match a.iter().zip(b).position(|(x, y)| x.to_bits() != y.to_bits()) {
        Some(i) => Some(i),
        None => (a.len() != b.len()).then_some(a.len().min(b.len())),
    }
}

/// Spare slots each edge array keeps past its length when it is built,
/// copied or grown, so the first appends after a copy do not reallocate.
const SPARE_EDGES: usize = 64;

/// An undirected weighted graph as the kernel's [`CsrView`] plus each
/// in-edge's raw weight, moved forward in place by [`Self::patch`].
/// Nodes are `0..node_count`; the node count is fixed at build.
#[derive(Debug, Default)]
pub struct UndirectedCsr {
    view: CsrView,
    /// Raw weight of each in-edge, parallel to `view.in_src`.
    in_w: Vec<f64>,
}

impl Clone for UndirectedCsr {
    /// A derived clone would have exact capacity, so the first append
    /// after a copy-on-write would reallocate every edge array; this
    /// one leaves `SPARE_EDGES` free slots in each.
    fn clone(&self) -> Self {
        let view = CsrView {
            in_off: self.view.in_off.clone(),
            in_src: with_spare(&self.view.in_src),
            in_coef: with_spare(&self.view.in_coef),
            out_weight: self.view.out_weight.clone(),
        };
        UndirectedCsr { view, in_w: with_spare(&self.in_w) }
    }
}

fn with_spare<T: Copy>(v: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(v.len() + SPARE_EDGES);
    out.extend_from_slice(v);
    out
}

/// Resizes `v` to `len`, reserving `SPARE_EDGES` more when it grows
/// past its capacity.
fn grow<T: Copy>(v: &mut Vec<T>, len: usize, fill: T) {
    if len > v.capacity() {
        v.reserve_exact(len - v.len() + SPARE_EDGES);
    }
    v.resize(len, fill);
}

impl UndirectedCsr {
    /// The CSR of `node_count` nodes and `edges`, each `(a, b, weight)`
    /// added as [`Graph::add_undirected_edge`] adds it, in order: a
    /// patch of the empty graph. Every endpoint must be below
    /// `node_count` and every weight finite and positive.
    pub fn build(
        node_count: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId, f64)>,
    ) -> Self {
        // An edgeless node's out-weight is the sum over an empty row, as
        // `Graph::out_weight` computes it (the bits of `-0.0`).
        let empty_row: f64 = std::iter::empty::<f64>().sum();
        let view = CsrView {
            in_off: vec![0; node_count + 1],
            out_weight: vec![empty_row; node_count],
            ..CsrView::default()
        };
        let mut csr = UndirectedCsr { view, in_w: Vec::new() };
        csr.patch(&edges.into_iter().collect::<Vec<_>>());
        csr
    }

    /// The arrays the PPR kernel reads.
    pub fn view(&self) -> &CsrView {
        &self.view
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.view.node_count()
    }

    /// Number of directed edges: two per undirected edge, one per
    /// self-loop, as [`Graph::edge_count`] counts them.
    pub fn edge_count(&self) -> usize {
        self.view.edge_count()
    }

    /// `v`'s edges with their raw weights, in insertion order. In an
    /// undirected graph these are its out-edges too.
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        let row = self.view.row(v.index());
        self.view.in_src[row.clone()]
            .iter()
            .zip(&self.in_w[row])
            .map(|(&u, &weight)| EdgeRef { neighbor: NodeId(u), weight })
    }

    /// Adds `edges`, each as [`Graph::add_undirected_edge`] adds it, in
    /// order, leaving the CSR bit-identical to a cold
    /// [`UndirectedCsr::build`] of every edge so far. Endpoints must be
    /// below [`Self::node_count`].
    ///
    /// Each half of an edge strengthens its in-edge in place, or is set
    /// aside as new, and `append` adds the new ones to their rows.
    /// Each touched node's out-weight is then re-summed over its row,
    /// and every coefficient of its out-edges rewritten in its
    /// neighbours' rows, each of which is searched or scanned once. Past
    /// the row searches a fold of the window would make, the cost is
    /// `O(V + E)` at most, so no window is better served by re-folding
    /// every row.
    pub fn patch(&mut self, edges: &[(NodeId, NodeId, f64)]) {
        if edges.is_empty() {
            return;
        }
        // In-edges no row holds yet, `(row, src, weight)` in window order.
        let mut new = Vec::new();
        let mut is_touched = vec![false; self.node_count()];
        let mut touched = Vec::new();
        for &(a, b, w) in edges {
            self.add_half(b.0, a.0, w, &mut new);
            if a != b {
                self.add_half(a.0, b.0, w, &mut new);
            }
            for x in [a.0, b.0] {
                if !is_touched[x as usize] {
                    is_touched[x as usize] = true;
                    touched.push(x);
                }
            }
        }
        self.append(new);
        let view = &mut self.view;
        // Per row, how many of its in-edges come from a touched node: one
        // per touched neighbour, since a row holds a source at most once.
        let mut pending = vec![0u32; view.node_count()];
        for &x in &touched {
            let row = view.row(x as usize);
            view.out_weight[x as usize] = self.in_w[row.clone()].iter().sum();
            for &v in &view.in_src[row] {
                pending[v as usize] += 1;
            }
        }
        // The coefficient of `x`'s out-edge in each neighbour's row: found
        // by a search where `x` is the row's only touched source, else
        // written with the row's others in one scan of the row.
        for &x in &touched {
            for j in view.row(x as usize) {
                let v = view.in_src[j] as usize;
                let row = view.row(v);
                match pending[v] {
                    0 => {}
                    1 => {
                        if let Some(k) = view.in_src[row.clone()].iter().position(|&s| s == x) {
                            let e = row.start + k;
                            view.in_coef[e] = self.in_w[e] / view.out_weight[x as usize];
                        }
                    }
                    _ => {
                        for e in row {
                            let src = view.in_src[e] as usize;
                            if is_touched[src] {
                                view.in_coef[e] = self.in_w[e] / view.out_weight[src];
                            }
                        }
                        pending[v] = 0;
                    }
                }
            }
        }
    }

    /// One half of an undirected edge: in-edge `src → row` strengthened
    /// in place, or else left in `new`.
    fn add_half(&mut self, row: u32, src: u32, w: f64, new: &mut Vec<(u32, u32, f64)>) {
        let edges = self.view.row(row as usize);
        match self.view.in_src[edges.clone()].iter().position(|&s| s == src) {
            Some(i) => self.in_w[edges.start + i] += w,
            None => new.push((row, src, w)),
        }
    }

    /// Appends `new` in-edges `(row, src, weight)`, in window order, to
    /// the ends of their rows as a fold of them would: a repeat
    /// strengthens the first occurrence, and each row takes its in-edges
    /// in order of first occurrence. The entries are grouped by row with
    /// a counting sort, then placed in one backward pass that moves
    /// every block of untouched rows once. Coefficients of the new
    /// entries are left for the caller to write.
    fn append(&mut self, new: Vec<(u32, u32, f64)>) {
        if new.is_empty() {
            return;
        }
        let view = &mut self.view;
        // `start[v]..start[v + 1]` of `grouped` holds row `v`'s entries.
        let mut start = vec![0u32; view.node_count() + 1];
        let mut rows = Vec::new();
        for &(row, ..) in &new {
            if start[row as usize + 1] == 0 {
                rows.push(row as usize);
            }
            start[row as usize + 1] += 1;
        }
        for v in 0..view.node_count() {
            start[v + 1] += start[v];
        }
        let mut next = start.clone();
        let mut grouped = vec![(0u32, 0.0); new.len()];
        for (row, src, w) in new {
            grouped[next[row as usize] as usize] = (src, w);
            next[row as usize] += 1;
        }
        // Fold each row's repeats into its first occurrences, which end
        // up first in the row's group: `next[v]` becomes their end.
        let mut shift = 0;
        for v in rows {
            let group = &mut grouped[start[v] as usize..start[v + 1] as usize];
            let mut kept = 0;
            for i in 0..group.len() {
                let (src, w) = group[i];
                match group[..kept].iter_mut().find(|e| e.0 == src) {
                    Some(e) => e.1 += w,
                    None => {
                        group[kept] = (src, w);
                        kept += 1;
                    }
                }
            }
            next[v] = start[v] + kept as u32;
            shift += kept;
        }
        let old_len = view.in_src.len();
        grow(&mut view.in_src, old_len + shift, 0);
        grow(&mut view.in_coef, old_len + shift, 0.0);
        grow(&mut self.in_w, old_len + shift, 0.0);
        // `shift` is the number of new entries in the rows up to the one
        // placed; old entries at or past `end` have moved.
        let mut end = old_len;
        for v in (0..view.node_count()).rev() {
            if shift == 0 {
                break;
            }
            let row_end = view.in_off[v + 1] as usize;
            view.in_off[v + 1] += shift as u32;
            let kept = &grouped[start[v] as usize..next[v] as usize];
            if kept.is_empty() {
                continue;
            }
            view.in_src.copy_within(row_end..end, row_end + shift);
            view.in_coef.copy_within(row_end..end, row_end + shift);
            self.in_w.copy_within(row_end..end, row_end + shift);
            shift -= kept.len();
            for (i, &(src, w)) in kept.iter().enumerate() {
                view.in_src[row_end + shift + i] = src;
                self.in_w[row_end + shift + i] = w;
            }
            end = row_end;
        }
    }

    /// Bitwise comparison against `other`: the kernel's arrays as
    /// [`CsrView::bitwise_diff`] compares them, then the raw weights.
    pub fn bitwise_diff(&self, other: &UndirectedCsr) -> Option<String> {
        self.view.bitwise_diff(&other.view).or_else(|| {
            first_bit_difference(&self.in_w, &other.in_w)
                .map(|i| format!("raw weight of edge {i} differs"))
        })
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

    /// A window that strengthens, appends to the first and last rows,
    /// repeats a new edge and adds a self-loop equals a cold build and
    /// `CsrView::build` of the same `Graph`, and a copy keeps spare room.
    #[test]
    fn patch_equals_a_cold_build_and_the_graph_csr() {
        let n = 4;
        let base = [(0, 1, 0.5), (1, 2, 0.3), (2, 2, 0.9)];
        let window = [(1, 2, 0.7), (3, 0, 0.2), (0, 3, 0.4), (0, 0, 0.1), (3, 3, 0.6)];
        let edge = |&(a, b, w): &(u32, u32, f64)| (NodeId(a), NodeId(b), w);
        let mut g = Graph::new();
        for i in 0..n {
            g.add_node(format!("n{i}"));
        }
        for (a, b, w) in base.iter().chain(&window).map(edge) {
            g.add_undirected_edge(a, b, w);
        }
        let mut csr = UndirectedCsr::build(n, base.iter().map(edge)).clone();
        assert!(csr.in_w.capacity() >= csr.in_w.len() + SPARE_EDGES);
        let window: Vec<_> = window.iter().map(edge).collect();
        csr.patch(&window);
        let cold = UndirectedCsr::build(n, base.iter().map(edge).chain(window.iter().copied()));
        assert_eq!(csr.bitwise_diff(&cold), None);
        assert_eq!(csr.view().bitwise_diff(&CsrView::build(&g)), None);
        assert_eq!(csr.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert!(csr.in_edges(v).eq(g.in_edges(v)), "row {v:?}");
        }
    }
}
