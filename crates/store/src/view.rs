//! `GraphView` — a generation-stamped CSR snapshot of the triple graph.
//!
//! Path search and relationship explanation used to rebuild a transient
//! adjacency map from a full store scan on **every query**. A
//! [`GraphView`] does that scan once, flattening the resource-to-resource
//! edges into a dictionary-encoded CSR layout (dense node index +
//! offsets + flat edge array, as in RDF-3X-style in-memory RDF engines),
//! and stamps itself with the store's mutation [`TripleStore::generation`].
//!
//! The layout is **canonical**: nodes are sorted by term id and each
//! row's hops are sorted by `(s, p, o, direction)`. Canonical order is
//! what makes *delta maintenance* possible — [`GraphView::apply_ops`]
//! splices a window of [`DeltaOp`]s into the CSR in place and the
//! result is bit-identical to a cold [`GraphView::build`], because both
//! are pure functions of the current triple set. The ops need only a
//! [`TermDict`] to tell hops from attributes, so a view can be kept
//! current with no store behind it: it carries every triple it
//! traverses, and a window past [`REBUILD_FRACTION`] of the view is
//! folded into those triples and the rows re-assembled once, instead
//! of spliced op by op.
//!
//! A view that does track a store detects staleness via
//! [`GraphView::is_current`] and patches with [`GraphView::apply_delta`],
//! which hands `apply_ops` the store's own log suffix and refuses (so
//! the caller rebuilds from the store) when that window was compacted
//! away or is past the same fraction.
//!
//! Both edge directions are materialized (reverse hops carry
//! `forward = false`), so one view serves directed and undirected
//! queries; per-query predicate filters apply at traversal time. A dense
//! term-id-to-row table, re-derived whenever the node array changes,
//! makes [`GraphView::node_index`] one array read.

use crate::dict::{TermDict, TermId};
use crate::store::{DeltaOp, StoredTriple, TripleStore};
use crate::term::Term;
use std::collections::BTreeMap;

/// Tiny strictly-positive per-hop cost; see [`GraphView::build`].
pub(crate) const HOP_EPSILON: f64 = 1e-9;

/// A window of more ops than this fraction of the current hop count
/// (plus a small absolute floor, so tiny views always patch) is not
/// spliced: [`GraphView::apply_delta`] refuses it and
/// [`GraphView::apply_ops`] re-assembles the rows instead. Each op costs
/// an `O(row + shift)` splice; past a quarter of the view a single
/// `O(V + E)` rebuild is cheaper.
pub const REBUILD_FRACTION: f64 = 0.25;

/// One traversable hop in a [`GraphView`]: neighbor node, the
/// underlying stored triple, the additive cost `-ln(weight) +
/// HOP_EPSILON`, and whether the hop follows the stored direction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ViewEdge {
    /// Neighbor term id.
    pub to: TermId,
    /// The stored triple this hop traverses (direction as stored).
    pub triple: StoredTriple,
    /// Additive search cost of the hop.
    pub cost: f64,
    /// True for subject→object hops, false for reverse traversal.
    pub forward: bool,
}

/// The canonical within-row sort key: stored triple, forward first.
fn edge_key(e: &ViewEdge) -> (u32, u32, u32, bool) {
    (e.triple.s.0, e.triple.p.0, e.triple.o.0, !e.forward)
}

fn hop_cost(weight: f64) -> f64 {
    -weight.ln() + HOP_EPSILON
}

/// True when a triple with object `o` is a hop: literal objects are
/// attributes, not edges.
fn is_hop(dict: &TermDict, o: TermId) -> bool {
    dict.resolve(o).map(Term::is_resource).unwrap_or(false)
}

/// Dictionary-encoded CSR adjacency snapshot of a [`TripleStore`],
/// stamped with the generation it reflects. Node lookup is one read of a
/// dense term-id-to-row table (no hashing), derived from the sorted node
/// array whenever that changes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GraphView {
    generation: u64,
    nodes: Vec<TermId>,
    off: Vec<u32>,
    edges: Vec<ViewEdge>,
    /// `rows[t]` is the row of term id `t`, [`NO_ROW`] for a term
    /// without edges; sized to one past the largest node id.
    rows: Vec<u32>,
}

/// The row-table entry of a term that has no edges.
const NO_ROW: u32 = u32::MAX;

impl GraphView {
    /// Scans `store` once and flattens every resource-to-resource edge
    /// (literal objects are attributes, not hops) into canonical order,
    /// both directions. The per-hop cost gets a strictly positive
    /// epsilon: weight-1.0 edges would otherwise cost 0 and let
    /// shortest-path search return zero-cost *walks* containing loops.
    pub fn build(store: &TripleStore) -> Self {
        hive_obs::count("store.view.build", 1);
        let hops = store.iter().filter(|t| is_hop(store.dict(), t.o));
        Self::assemble(store.generation(), hops)
    }

    /// The row assembly both builds share: `triples` (each a hop, each
    /// `(s, p, o)` once, in any order) as canonical rows, both
    /// directions, with the row table derived. Rows are sorted by a key
    /// unique within a row, so the input order never shows.
    fn assemble(generation: u64, triples: impl Iterator<Item = StoredTriple>) -> Self {
        let mut rows: BTreeMap<TermId, Vec<ViewEdge>> = BTreeMap::new();
        for t in triples {
            let cost = hop_cost(t.weight);
            rows.entry(t.s)
                .or_default()
                .push(ViewEdge { to: t.o, triple: t, cost, forward: true });
            rows.entry(t.o)
                .or_default()
                .push(ViewEdge { to: t.s, triple: t, cost, forward: false });
        }
        let mut nodes = Vec::with_capacity(rows.len());
        let mut off = Vec::with_capacity(rows.len() + 1);
        let mut edges = Vec::with_capacity(rows.values().map(Vec::len).sum());
        off.push(0u32);
        for (node, mut list) in rows {
            list.sort_unstable_by(|a, b| edge_key(a).cmp(&edge_key(b)));
            nodes.push(node);
            edges.extend(list);
            off.push(edges.len() as u32);
        }
        let mut view = GraphView { generation, nodes, off, edges, rows: Vec::new() };
        view.index_rows();
        view
    }

    /// Re-derives the term-id-to-row table from the node array: O(V),
    /// less than one splice's shift of the edge array.
    fn index_rows(&mut self) {
        self.rows.clear();
        self.rows.resize(self.nodes.last().map_or(0, |n| n.0 as usize + 1), NO_ROW);
        for (i, n) in self.nodes.iter().enumerate() {
            self.rows[n.0 as usize] = i as u32;
        }
    }

    /// True when `ops` ops are past [`REBUILD_FRACTION`] of this view.
    fn splice_costs_more(&self, ops: usize) -> bool {
        ops as f64 > (self.edges.len() as f64) * REBUILD_FRACTION + 16.0
    }

    /// Patches this view in place with the store's delta suffix since
    /// the view's generation. Returns `false` — leaving the view
    /// untouched — when the window was compacted away or the delta is
    /// large enough that a rebuild is cheaper; the caller then calls
    /// [`GraphView::build`]. On success the view is bit-identical to a
    /// cold rebuild at the store's current generation (the canonical
    /// layout is a pure function of the triple set).
    pub fn apply_delta(&mut self, store: &TripleStore) -> bool {
        if self.generation == store.generation() {
            return true;
        }
        let Some(ops) = store.deltas_since(self.generation) else {
            hive_obs::count("store.view.rebuild_fallback", 1);
            return false;
        };
        if self.splice_costs_more(ops.len()) {
            hive_obs::count("store.view.rebuild_fallback", 1);
            return false;
        }
        self.apply_ops(store.dict(), ops);
        true
    }

    /// Applies `ops` (oldest first) to this view; `dict` resolves their
    /// objects, so attribute triples are skipped exactly as
    /// [`GraphView::build`] skips them, and an upsert of a present
    /// triple replaces its hop. Up to [`REBUILD_FRACTION`] of the view
    /// each op is spliced in place; past it the view re-assembles its
    /// rows once from its own forward hops (one per triple) with the
    /// window folded in (`store.view.rebuild_fallback`). Either way the
    /// view is bit-identical to a cold build over the resulting triple
    /// set. The stamp advances by one per op, as a store's generation
    /// does for each op it logs.
    pub fn apply_ops(&mut self, dict: &TermDict, ops: &[DeltaOp]) {
        let generation = self.generation + ops.len() as u64;
        if self.splice_costs_more(ops.len()) {
            hive_obs::count("store.view.rebuild_fallback", 1);
            let mut triples: BTreeMap<(TermId, TermId, TermId), f64> = self
                .edges
                .iter()
                .filter(|e| e.forward)
                .map(|e| ((e.triple.s, e.triple.p, e.triple.o), e.triple.weight))
                .collect();
            for &op in ops {
                match op {
                    DeltaOp::Upsert { s, p, o, weight } => {
                        if is_hop(dict, o) {
                            triples.insert((s, p, o), weight);
                        }
                    }
                    DeltaOp::Remove { s, p, o } => {
                        triples.remove(&(s, p, o));
                    }
                }
            }
            let triples =
                triples.into_iter().map(|((s, p, o), weight)| StoredTriple { s, p, o, weight });
            *self = Self::assemble(generation, triples);
            return;
        }
        if self.off.is_empty() {
            self.off.push(0); // a Default view is an empty zero-generation view
        }
        for &op in ops {
            match op {
                DeltaOp::Upsert { s, p, o, weight } => {
                    if !is_hop(dict, o) {
                        continue; // attribute triple: never a hop
                    }
                    let triple = StoredTriple { s, p, o, weight };
                    let cost = hop_cost(weight);
                    self.upsert_edge(s, ViewEdge { to: o, triple, cost, forward: true });
                    self.upsert_edge(o, ViewEdge { to: s, triple, cost, forward: false });
                }
                DeltaOp::Remove { s, p, o } => {
                    self.remove_edge(s, (s.0, p.0, o.0, false));
                    self.remove_edge(o, (s.0, p.0, o.0, true));
                }
            }
        }
        self.index_rows();
        self.generation = generation;
        hive_obs::count("store.view.delta", 1);
    }

    /// Inserts or replaces one hop in `row`'s sorted edge slice,
    /// creating the row at its sorted position if needed.
    fn upsert_edge(&mut self, row: TermId, e: ViewEdge) {
        let ri = match self.nodes.binary_search(&row) {
            Ok(i) => i,
            Err(i) => {
                let at = self.off[i];
                self.nodes.insert(i, row);
                self.off.insert(i + 1, at);
                i
            }
        };
        let (lo, hi) = (self.off[ri] as usize, self.off[ri + 1] as usize);
        let key = edge_key(&e);
        match self.edges[lo..hi].binary_search_by(|x| edge_key(x).cmp(&key)) {
            Ok(j) => self.edges[lo + j] = e,
            Err(j) => {
                self.edges.insert(lo + j, e);
                for o in &mut self.off[ri + 1..] {
                    *o += 1;
                }
            }
        }
    }

    /// Removes one hop from `row` (keyed by `(s, p, o, !forward)`),
    /// dropping the row entirely when it becomes empty — `build` never
    /// emits edge-less nodes, and a patched view must match it.
    fn remove_edge(&mut self, row: TermId, key: (u32, u32, u32, bool)) {
        let Ok(ri) = self.nodes.binary_search(&row) else {
            return;
        };
        let (lo, hi) = (self.off[ri] as usize, self.off[ri + 1] as usize);
        let Ok(j) = self.edges[lo..hi].binary_search_by(|x| edge_key(x).cmp(&key)) else {
            return;
        };
        self.edges.remove(lo + j);
        for o in &mut self.off[ri + 1..] {
            *o -= 1;
        }
        if self.off[ri] == self.off[ri + 1] {
            self.nodes.remove(ri);
            self.off.remove(ri + 1);
        }
    }

    /// The store generation this snapshot reflects.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True while no mutation has touched `store` since this view was
    /// built or last patched — the cache-validity check.
    pub fn is_current(&self, store: &TripleStore) -> bool {
        let current = self.generation == store.generation();
        hive_obs::count(if current { "store.view.hit" } else { "store.view.miss" }, 1);
        current
    }

    /// Number of graph nodes (resources that take part in at least one
    /// traversable edge).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed hops (2× the traversable triples).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Dense row index of `n` in this view, if it has any edges. Rows
    /// are numbered `0..node_count()` in ascending term-id order.
    pub fn node_index(&self, n: TermId) -> Option<usize> {
        match self.rows.get(n.0 as usize) {
            Some(&row) if row != NO_ROW => Some(row as usize),
            _ => None,
        }
    }

    /// The term id of row `i` (inverse of [`GraphView::node_index`]).
    pub fn node_at(&self, i: usize) -> TermId {
        self.nodes[i]
    }

    /// All hops leaving row `i` (see [`GraphView::node_index`]).
    pub fn edges_of_index(&self, i: usize) -> &[ViewEdge] {
        let (lo, hi) = (self.off[i] as usize, self.off[i + 1] as usize);
        &self.edges[lo..hi]
    }

    /// All hops leaving `n`, forward and reverse; empty for nodes
    /// without traversable edges.
    pub fn edges_of(&self, n: TermId) -> &[ViewEdge] {
        match self.node_index(n) {
            Some(i) => self.edges_of_index(i),
            None => &[],
        }
    }

    /// Bitwise comparison against `other` (float fields compared by
    /// bits, not by `==`): the delta-vs-rebuild oracle used by property
    /// tests and the sim harness. Returns the first difference found.
    pub fn bitwise_diff(&self, other: &GraphView) -> Option<String> {
        if self.generation != other.generation {
            return Some(format!("generation {} != {}", self.generation, other.generation));
        }
        if self.nodes != other.nodes {
            return Some(format!("node sets differ: {} vs {}", self.nodes.len(), other.nodes.len()));
        }
        if self.off != other.off {
            return Some("row offsets differ".to_string());
        }
        if self.rows != other.rows {
            return Some("row tables differ".to_string());
        }
        for (i, (a, b)) in self.edges.iter().zip(&other.edges).enumerate() {
            let same = a.to == b.to
                && a.forward == b.forward
                && a.triple.s == b.triple.s
                && a.triple.p == b.triple.p
                && a.triple.o == b.triple.o
                && a.triple.weight.to_bits() == b.triple.weight.to_bits()
                && a.cost.to_bits() == b.cost.to_bits();
            if !same {
                return Some(format!("edge {i} differs: {a:?} vs {b:?}"));
            }
        }
        if self.edges.len() != other.edges.len() {
            return Some(format!("edge counts differ: {} vs {}", self.edges.len(), other.edges.len()));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn small_store() -> TripleStore {
        let mut st = TripleStore::new();
        st.insert(Term::iri("a"), Term::iri("rel"), Term::iri("b"), 0.9).unwrap();
        st.insert(Term::iri("b"), Term::iri("rel"), Term::iri("c"), 0.5).unwrap();
        st.insert(Term::iri("a"), Term::iri("name"), Term::str("Ann"), 1.0).unwrap();
        st
    }

    #[test]
    fn view_flattens_both_directions_and_skips_literals() {
        let st = small_store();
        let view = GraphView::build(&st);
        // a, b, c — the literal "Ann" is not a node.
        assert_eq!(view.node_count(), 3);
        assert_eq!(view.edge_count(), 4, "two triples, both directions");
        let b = st.dict().get(&Term::iri("b")).unwrap();
        let hops = view.edges_of(b);
        assert_eq!(hops.len(), 2);
        assert!(hops.iter().any(|e| e.forward) && hops.iter().any(|e| !e.forward));
        let unknown = view.edges_of(TermId(9999));
        assert!(unknown.is_empty());
    }

    #[test]
    fn view_staleness_tracks_store_generation() {
        let mut st = small_store();
        let view = GraphView::build(&st);
        assert!(view.is_current(&st));
        st.set_weight(&Term::iri("a"), &Term::iri("rel"), &Term::iri("b"), 0.1).unwrap();
        assert!(!view.is_current(&st), "re-weighting must invalidate");
        let rebuilt = GraphView::build(&st);
        assert!(rebuilt.is_current(&st));
        assert!(rebuilt.generation() > view.generation());
    }

    #[test]
    fn apply_delta_matches_rebuild_for_each_mutation_kind() {
        let mut st = small_store();
        let mut view = GraphView::build(&st);
        // Insert (new nodes), re-weight, attribute insert, remove.
        st.insert(Term::iri("c"), Term::iri("rel"), Term::iri("d"), 0.7).unwrap();
        st.set_weight(&Term::iri("a"), &Term::iri("rel"), &Term::iri("b"), 0.2).unwrap();
        st.insert(Term::iri("d"), Term::iri("name"), Term::str("Dee"), 1.0).unwrap();
        st.remove(&Term::iri("b"), &Term::iri("rel"), &Term::iri("c"));
        assert!(view.apply_delta(&st), "small delta must patch in place");
        assert!(view.is_current(&st));
        let rebuilt = GraphView::build(&st);
        assert_eq!(view.bitwise_diff(&rebuilt), None);
    }

    #[test]
    fn apply_delta_handles_self_loops_and_row_removal() {
        // Patches, then checks the view (row table included) against a
        // cold build, and every term's row lookup against the node array.
        fn patch(view: &mut GraphView, st: &TripleStore) {
            assert!(view.apply_delta(st));
            assert_eq!(view.bitwise_diff(&GraphView::build(st)), None);
            for t in (0..st.dict().len() as u32).map(TermId) {
                assert_eq!(view.node_index(t), view.nodes.binary_search(&t).ok(), "{t:?}");
            }
        }
        let (x, y, z, w) = (Term::iri("x"), Term::iri("y"), Term::iri("z"), Term::iri("w"));
        let rel = Term::iri("rel");
        let mut st = TripleStore::new();
        st.insert(x.clone(), rel.clone(), y.clone(), 0.5).unwrap();
        let mut view = GraphView::build(&st);
        st.insert(x.clone(), rel.clone(), x.clone(), 0.4).unwrap();
        st.remove(&x, &rel, &y);
        patch(&mut view, &st);
        assert_eq!(view.node_count(), 1, "y's row must vanish with its last hop");
        // Rows x, z, w in id order; then z, the middle row, loses its hop.
        st.insert(z.clone(), rel.clone(), w.clone(), 0.6).unwrap();
        st.insert(x.clone(), rel.clone(), w.clone(), 0.7).unwrap();
        patch(&mut view, &st);
        st.remove(&z, &rel, &w);
        patch(&mut view, &st);
        assert_eq!(view.node_count(), 2, "z's middle row must vanish");
        // y regains a hop, and with it a row between x and w.
        st.insert(y.clone(), rel.clone(), w.clone(), 0.8).unwrap();
        patch(&mut view, &st);
        assert_eq!(view.node_count(), 3);
    }

    #[test]
    fn apply_ops_past_the_fraction_reassembles_bit_identically() {
        let mut st = small_store();
        let mut view = GraphView::build(&st);
        let g0 = st.generation();
        // 40 new hops (two of them re-inserted at a new weight), a
        // re-weight, an attribute and a removal: far past this tiny
        // view's 16-op floor plus a quarter of its 4 hops.
        for i in 0..40 {
            st.insert(Term::iri(format!("m{i}")), Term::iri("rel"), Term::iri("b"), 0.5).unwrap();
        }
        st.set_weight(&Term::iri("a"), &Term::iri("rel"), &Term::iri("b"), 0.2).unwrap();
        st.insert(Term::iri("m3"), Term::iri("name"), Term::str("Em"), 1.0).unwrap();
        st.remove(&Term::iri("b"), &Term::iri("rel"), &Term::iri("c"));
        st.insert(Term::iri("m7"), Term::iri("rel"), Term::iri("b"), 0.9).unwrap();
        st.insert(Term::iri("m9"), Term::iri("rel"), Term::iri("b"), 0.6).unwrap();
        let ops = st.deltas_since(g0).unwrap();
        hive_obs::with_level(hive_obs::Level::Counts, || {
            hive_obs::reset();
            view.apply_ops(st.dict(), ops);
            let counts = hive_obs::snapshot();
            assert_eq!(counts.counter("store.view.rebuild_fallback"), 1, "re-assembled");
            assert_eq!(counts.counter("store.view.delta"), 0, "not spliced");
            hive_obs::reset();
        });
        // The stamp advanced by one per op, to the store's generation.
        assert_eq!(view.bitwise_diff(&GraphView::build(&st)), None);
    }

    #[test]
    fn apply_delta_refuses_compacted_or_oversized_windows() {
        let mut st = small_store();
        let mut view = GraphView::build(&st);
        // An oversized delta (relative to this tiny view's floor) is
        // simulated by exceeding the absolute floor of 16 + 25% of 4.
        for i in 0..40 {
            st.insert(Term::iri(format!("m{i}")), Term::iri("rel"), Term::iri("m0"), 0.5)
                .unwrap();
        }
        assert!(!view.apply_delta(&st), "oversized delta must fall back");
        // The untouched view still patches cleanly after a rebuild.
        let mut fresh = GraphView::build(&st);
        st.insert(Term::iri("z"), Term::iri("rel"), Term::iri("m0"), 0.3).unwrap();
        assert!(fresh.apply_delta(&st));
        assert_eq!(fresh.bitwise_diff(&GraphView::build(&st)), None);
    }
}
