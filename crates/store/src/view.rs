//! `GraphView` — a CSR snapshot of the triple graph.
//!
//! Path search and relationship explanation used to rebuild a transient
//! adjacency map from a full store scan on **every query**. A
//! [`GraphView`] does that scan once, flattening the resource-to-resource
//! edges into a dictionary-encoded CSR layout (dense node index +
//! offsets + flat edge array, as in RDF-3X-style in-memory RDF engines).
//!
//! The layout is **canonical**: nodes are sorted by term id and each
//! row's hops are sorted by `(s, p, o, direction)`, so a view is a pure
//! function of its triple set. That is what lets a view move forward
//! with no store behind it: [`GraphView::upsert`] takes a window of
//! triples, each inserted or re-weighted, and needs only a [`TermDict`]
//! to tell hops from attributes. Up to [`REBUILD_FRACTION`] of the view
//! it splices each triple into the CSR in place; past it, the view
//! folds the window into the triples it carries and re-assembles its
//! rows once. [`GraphView::from_upserts`] runs the same fold from an
//! empty view, for a caller that holds a triple list and no store.
//! Either way the view is bit-identical to [`GraphView::build`] over a
//! store given the same inserts.
//!
//! Both edge directions are materialized (reverse hops carry
//! `forward = false`), so one view serves directed and undirected
//! queries; per-query predicate filters apply at traversal time. A dense
//! term-id-to-row table, re-derived whenever the node array changes,
//! makes [`GraphView::node_index`] one array read.

use crate::dict::{TermDict, TermId};
use crate::store::{StoredTriple, TripleStore};
use crate::term::Term;
use std::collections::BTreeMap;

/// Tiny strictly-positive per-hop cost; see [`GraphView::build`].
pub(crate) const HOP_EPSILON: f64 = 1e-9;

/// A window of more triples than this fraction of the current hop count
/// (plus a small absolute floor, so tiny views always patch) is not
/// spliced: [`GraphView::upsert`] re-assembles the rows instead. Each
/// triple costs an `O(row + shift)` splice; past a quarter of the view a
/// single `O(V + E)` rebuild is cheaper.
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

/// Dictionary-encoded CSR adjacency snapshot of a triple set. Node
/// lookup is one read of a dense term-id-to-row table (no hashing),
/// derived from the sorted node array whenever that changes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GraphView {
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
        Self::assemble(store.iter().filter(|t| is_hop(store.dict(), t.o)))
    }

    /// The view of `upserts` (oldest first; `dict` resolves their
    /// objects): what [`GraphView::build`] gives over a store that
    /// inserted the same triples in the same order. Counted as a build.
    pub fn from_upserts(dict: &TermDict, upserts: &[StoredTriple]) -> Self {
        hive_obs::count("store.view.build", 1);
        Self::fold(BTreeMap::new(), dict, upserts)
    }

    /// The fold [`GraphView::from_upserts`] and a window past
    /// [`REBUILD_FRACTION`] share: the hops among `upserts` (attribute
    /// triples skipped, as [`GraphView::build`] skips them) written over
    /// `triples`, the last weight of a triple winning, then assembled.
    fn fold(
        mut triples: BTreeMap<(TermId, TermId, TermId), f64>,
        dict: &TermDict,
        upserts: &[StoredTriple],
    ) -> Self {
        for t in upserts.iter().filter(|t| is_hop(dict, t.o)) {
            triples.insert((t.s, t.p, t.o), t.weight);
        }
        Self::assemble(
            triples.into_iter().map(|((s, p, o), weight)| StoredTriple { s, p, o, weight }),
        )
    }

    /// The row assembly every build shares: `triples` (each a hop, each
    /// `(s, p, o)` once, in any order) as canonical rows, both
    /// directions, with the row table derived. Rows are sorted by a key
    /// unique within a row, so the input order never shows.
    fn assemble(triples: impl Iterator<Item = StoredTriple>) -> Self {
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
        let mut view = GraphView { nodes, off, edges, rows: Vec::new() };
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

    /// Inserts or re-weights `upserts` (oldest first) in this view;
    /// `dict` resolves their objects, so attribute triples are skipped
    /// exactly as [`GraphView::build`] skips them, and an upsert of a
    /// present triple replaces its hop. Up to [`REBUILD_FRACTION`] of the
    /// view each triple is spliced in place (`store.view.delta`); past
    /// it the view folds the window into its own forward hops (one per
    /// triple) and re-assembles its rows once
    /// (`store.view.rebuild_fallback`). Either way the view is
    /// bit-identical to a cold build over the resulting triple set.
    pub fn upsert(&mut self, dict: &TermDict, upserts: &[StoredTriple]) {
        if upserts.len() as f64 > (self.edges.len() as f64) * REBUILD_FRACTION + 16.0 {
            hive_obs::count("store.view.rebuild_fallback", 1);
            let own = self
                .edges
                .iter()
                .filter(|e| e.forward)
                .map(|e| ((e.triple.s, e.triple.p, e.triple.o), e.triple.weight))
                .collect();
            *self = Self::fold(own, dict, upserts);
            return;
        }
        if self.off.is_empty() {
            self.off.push(0); // a Default view is an empty view
        }
        for &triple in upserts.iter().filter(|t| is_hop(dict, t.o)) {
            let cost = hop_cost(triple.weight);
            self.upsert_edge(triple.s, ViewEdge { to: triple.o, triple, cost, forward: true });
            self.upsert_edge(triple.o, ViewEdge { to: triple.s, triple, cost, forward: false });
        }
        self.index_rows();
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

    type Triple = (Term, Term, Term, f64);

    fn iri(name: &str) -> Term {
        Term::iri(name)
    }

    /// Inserts `triples` into `st` in order and returns them as a view
    /// window, ids read from the store's dictionary.
    fn insert(st: &mut TripleStore, triples: &[Triple]) -> Vec<StoredTriple> {
        triples
            .iter()
            .map(|(s, p, o, weight)| {
                st.insert(s.clone(), p.clone(), o.clone(), *weight).unwrap();
                let id = |t: &Term| st.dict().get(t).unwrap();
                StoredTriple { s: id(s), p: id(p), o: id(o), weight: *weight }
            })
            .collect()
    }

    fn small_triples() -> Vec<Triple> {
        vec![
            (iri("a"), iri("rel"), iri("b"), 0.9),
            (iri("b"), iri("rel"), iri("c"), 0.5),
            (iri("a"), iri("name"), Term::str("Ann"), 1.0),
        ]
    }

    fn small_store() -> TripleStore {
        let mut st = TripleStore::new();
        insert(&mut st, &small_triples());
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

    /// A window with a new hop between new nodes, a re-weight and an
    /// attribute, upserted into a built view, equals a cold build; so
    /// does `from_upserts` over the store's whole insert sequence.
    #[test]
    fn upsert_matches_rebuild_for_each_mutation_kind() {
        let mut st = TripleStore::new();
        let base = insert(&mut st, &small_triples());
        let mut view = GraphView::build(&st);
        let window = insert(
            &mut st,
            &[
                (iri("c"), iri("rel"), iri("d"), 0.7),
                (iri("a"), iri("rel"), iri("b"), 0.2),
                (iri("d"), iri("name"), Term::str("Dee"), 1.0),
            ],
        );
        view.upsert(st.dict(), &window);
        let cold = GraphView::build(&st);
        assert_eq!(view.bitwise_diff(&cold), None);
        let all = [base, window].concat();
        assert_eq!(GraphView::from_upserts(st.dict(), &all).bitwise_diff(&cold), None);
    }

    /// Self-loops, and rows appearing before and between the existing
    /// ones: after each window the view, row table included, equals a
    /// cold build, and every term's row lookup agrees with the node array.
    #[test]
    fn upsert_handles_self_loops_and_middle_rows() {
        fn upsert(view: &mut GraphView, st: &mut TripleStore, triples: &[Triple]) {
            let window = insert(st, triples);
            view.upsert(st.dict(), &window);
            assert_eq!(view.bitwise_diff(&GraphView::build(st)), None);
            for t in (0..st.dict().len() as u32).map(TermId) {
                assert_eq!(view.node_index(t), view.nodes.binary_search(&t).ok(), "{t:?}");
            }
        }
        let (x, y, z, w, rel) = (iri("x"), iri("y"), iri("z"), iri("w"), iri("rel"));
        // x and y are interned by attributes only, so they have ids
        // below z and w but no rows yet.
        let mut st = TripleStore::new();
        insert(
            &mut st,
            &[
                (x.clone(), iri("name"), Term::str("X"), 1.0),
                (y.clone(), iri("name"), Term::str("Y"), 1.0),
                (z.clone(), rel.clone(), w.clone(), 0.6),
            ],
        );
        let mut view = GraphView::build(&st);
        assert_eq!(view.node_count(), 2);
        upsert(&mut view, &mut st, &[(x.clone(), rel.clone(), x.clone(), 0.4)]);
        assert_eq!(view.node_count(), 3, "x's self-loop makes the first row");
        upsert(&mut view, &mut st, &[(y.clone(), rel.clone(), w.clone(), 0.8)]);
        assert_eq!(view.node_count(), 4, "y's row lands between x and z");
        upsert(&mut view, &mut st, &[(x.clone(), rel.clone(), x, 0.9), (z.clone(), rel, z, 0.3)]);
        assert_eq!(view.node_count(), 4, "a re-weight and a self-loop in present rows");
    }

    /// A window past `REBUILD_FRACTION` of the view is folded into the
    /// view's own hops and re-assembled once, equal to a cold build.
    #[test]
    fn apply_ops_past_the_fraction_reassembles_bit_identically() {
        let mut st = small_store();
        let mut view = GraphView::build(&st);
        // 40 new hops (two of them re-inserted at a new weight), a
        // re-weight and an attribute: far past this tiny view's 16-triple
        // floor plus a quarter of its 4 hops.
        let mut triples: Vec<Triple> =
            (0..40).map(|i| (iri(&format!("m{i}")), iri("rel"), iri("b"), 0.5)).collect();
        triples.push((iri("a"), iri("rel"), iri("b"), 0.2));
        triples.push((iri("m3"), iri("name"), Term::str("Em"), 1.0));
        triples.push((iri("m7"), iri("rel"), iri("b"), 0.9));
        triples.push((iri("m9"), iri("rel"), iri("b"), 0.6));
        let window = insert(&mut st, &triples);
        hive_obs::with_level(hive_obs::Level::Counts, || {
            hive_obs::reset();
            view.upsert(st.dict(), &window);
            let counts = hive_obs::snapshot();
            assert_eq!(counts.counter("store.view.rebuild_fallback"), 1, "re-assembled");
            assert_eq!(counts.counter("store.view.delta"), 0, "not spliced");
            hive_obs::reset();
        });
        assert_eq!(view.bitwise_diff(&GraphView::build(&st)), None);
    }
}
