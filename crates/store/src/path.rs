//! Ranked path queries over the weighted triple graph.
//!
//! R2DB's headline feature (ref \[11\]) is *ranked path queries over weighted
//! RDF graphs*: "which chains of relationships connect X to Y, strongest
//! first?" Hive uses this to discover and **explain** relationships between
//! two researchers (paper Figure 2), where each hop is an evidence triple
//! (co-authorship, citation, shared session, ...).
//!
//! Path strength is the product of hop weights; internally we run Dijkstra
//! over additive costs `-ln(w)` (weights are in `(0,1]`, so costs are
//! non-negative). Top-k paths use Yen's algorithm with loop-free paths.
//!
//! Traversal runs over a [`GraphView`] CSR snapshot. [`PathQuery::run`]
//! builds one on the fly (one full store scan); repeated queries should
//! build the view once and call [`PathQuery::run_on`], which skips the
//! scan entirely and reads only the view and the term dictionary, so a
//! caller may keep those two current without the store.
//!
//! Relaxing an edge costs O(1) with no hashing: the neighbour's row is
//! one read of the view's row table, Yen's few banned nodes and edges
//! are scanned as slices, and a state whose node already holds a
//! strictly lower cost at fewer hops is never pushed. Each Dijkstra run
//! adds to the `store.path_query.searches` counter and its heap pops to
//! `store.path_query.pops`.

use crate::dict::{TermDict, TermId};
use crate::error::StoreError;
use crate::store::{StoredTriple, TripleStore};
use crate::term::Term;
use crate::view::{GraphView, ViewEdge};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A loop-free path through the triple graph, strongest-first ranked.
#[derive(Clone, Debug, PartialEq)]
pub struct RankedPath {
    /// Node sequence from source to target (length = hops + 1).
    pub nodes: Vec<TermId>,
    /// The triples traversed, one per hop (direction as stored).
    pub triples: Vec<StoredTriple>,
    /// Product of hop weights in `(0, 1]`.
    pub score: f64,
}

impl RankedPath {
    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.triples.len()
    }

    /// Renders the path as a human-readable chain using the dictionary.
    pub fn explain(&self, dict: &TermDict) -> String {
        let mut out = String::new();
        for (i, t) in self.triples.iter().enumerate() {
            let (s, p, o) = dict.resolve_triple(t);
            if i > 0 {
                out.push_str("  ->  ");
            }
            out.push_str(&format!("{s} --{p}/{:.2}--> {o}", t.weight));
        }
        out
    }
}

/// Configuration for a ranked path search.
#[derive(Clone, Debug)]
pub struct PathQuery {
    source: Term,
    target: Term,
    /// Restrict traversal to these predicates (empty = all).
    predicates: Vec<Term>,
    /// Also traverse edges object->subject.
    undirected: bool,
    /// Maximum number of hops per path.
    max_hops: usize,
    /// Number of paths to return.
    k: usize,
}

impl PathQuery {
    /// Creates a query from `source` to `target` with defaults:
    /// undirected traversal, max 4 hops, top-1 path, all predicates.
    pub fn new(source: Term, target: Term) -> Self {
        PathQuery {
            source,
            target,
            predicates: Vec::new(),
            undirected: true,
            max_hops: 4,
            k: 1,
        }
    }

    /// Restricts traversal to the given predicates.
    pub fn over_predicates(mut self, preds: Vec<Term>) -> Self {
        self.predicates = preds;
        self
    }

    /// Sets directed-only traversal (subject -> object).
    pub fn directed(mut self) -> Self {
        self.undirected = false;
        self
    }

    /// Sets the hop budget.
    pub fn max_hops(mut self, h: usize) -> Self {
        self.max_hops = h;
        self
    }

    /// Requests the top-k strongest paths.
    pub fn top_k(mut self, k: usize) -> Self {
        self.k = k.max(1);
        self
    }

    /// Runs the search, building a fresh [`GraphView`] snapshot (one
    /// full store scan). For repeated queries over an unchanged store,
    /// build the view once and use [`Self::run_on`].
    pub fn run(&self, store: &TripleStore) -> Result<Vec<RankedPath>, StoreError> {
        let view = GraphView::build(store);
        self.run_on(store.dict(), &view)
    }

    /// Runs the search over a pre-built [`GraphView`] — the cached-query
    /// fast path. `dict` (the dictionary the view's ids come from) is
    /// only consulted to resolve the query terms; the caller is
    /// responsible for the view being current: a stale view answers
    /// from its snapshot.
    pub fn run_on(&self, dict: &TermDict, view: &GraphView) -> Result<Vec<RankedPath>, StoreError> {
        hive_obs::count("store.path_query", 1);
        if self.source == self.target {
            return Err(StoreError::BadPathQuery("source equals target".into()));
        }
        let src = dict
            .get(&self.source)
            .ok_or_else(|| StoreError::UnknownTerm(self.source.to_string()))?;
        let dst = dict
            .get(&self.target)
            .ok_or_else(|| StoreError::UnknownTerm(self.target.to_string()))?;
        let pred_ids: Option<Vec<TermId>> = if self.predicates.is_empty() {
            None
        } else {
            let mut ids: Vec<TermId> = self.predicates.iter().filter_map(|p| dict.get(p)).collect();
            ids.sort_unstable();
            Some(ids)
        };
        let trav = Traversal { view, preds: pred_ids, undirected: self.undirected };
        Ok(yen_top_k(&trav, src, dst, self.k, self.max_hops))
    }
}

/// Per-query lens over a shared [`GraphView`]: applies the predicate
/// restriction and directedness at traversal time, so one cached
/// snapshot serves every query shape.
struct Traversal<'a> {
    view: &'a GraphView,
    /// Sorted predicate ids, searched per edge.
    preds: Option<Vec<TermId>>,
    undirected: bool,
}

impl Traversal<'_> {
    fn edges_at(&self, row: usize) -> impl Iterator<Item = &ViewEdge> + '_ {
        self.view.edges_of_index(row).iter().filter(move |e| {
            (self.undirected || e.forward)
                && self.preds.as_ref().is_none_or(|ps| ps.binary_search(&e.triple.p).is_ok())
        })
    }
}

/// Min-heap entry for Dijkstra.
struct HeapEntry {
    cost: f64,
    node: TermId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.node == other.node
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; costs are finite (weights > 0), so
        // the IEEE total order agrees with the numeric order here.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// A banned hop: from node, to node, and the traversed triple's predicate
/// and subject.
type EdgeKey = (TermId, TermId, TermId, TermId);

/// Dijkstra shortest (cheapest) path from `src` to `dst`, avoiding
/// `banned_nodes` and `banned_edges`, within `max_hops`. Yen bans fewer
/// than `max_hops` nodes and fewer than k edges per search, so both are
/// scanned linearly.
fn dijkstra(
    adj: &Traversal<'_>,
    src: TermId,
    dst: TermId,
    banned_nodes: &[TermId],
    banned_edges: &[EdgeKey],
    max_hops: usize,
) -> Option<RankedPath> {
    // State is (view row, hops): the hop dimension keeps the budget from
    // pruning cheaper longer paths incorrectly, and the dense row index
    // turns the per-state bookkeeping into flat array reads — no hashing
    // on the hot relaxation loop (the warm-view fast path).
    //
    // A state is not pushed when its node already holds a strictly lower
    // cost at fewer hops: every completion of it is completed strictly
    // cheaper, within the budget, from that state, so it is never on the
    // returned chain. On the `rel:*` export (weights are tenths in
    // [0.5, 1]) two prefix costs with different hop counts differ by at
    // least `HOP_EPSILON`, far above rounding, so adding a hop keeps that
    // order, and the heap's total order pops the kept states in the order
    // it would without the skip.
    let view = adj.view;
    let src_row = view.node_index(src)?; // edge-less source reaches nothing
    let layers = max_hops + 1;
    let mut best: Vec<f64> = vec![f64::INFINITY; view.node_count() * layers];
    let mut prev: Vec<Option<(u32, u32, StoredTriple)>> =
        vec![None; view.node_count() * layers];
    let mut heap = BinaryHeap::new();
    best[src_row * layers] = 0.0;
    heap.push((HeapEntry { cost: 0.0, node: src }, src_row, 0usize));
    let mut found: Option<(usize, usize)> = None;
    let mut pops = 0u64;
    while let Some((entry, row, hops)) = heap.pop() {
        pops += 1;
        if entry.cost > best[row * layers + hops] {
            continue;
        }
        if entry.node == dst {
            found = Some((row, hops));
            break;
        }
        if hops == max_hops {
            continue;
        }
        for e in adj.edges_at(row) {
            if banned_nodes.contains(&e.to) {
                continue;
            }
            let edge_key = (entry.node, e.to, e.triple.p, e.triple.s);
            if banned_edges.contains(&edge_key) {
                continue;
            }
            let Some(nrow) = view.node_index(e.to) else {
                continue;
            };
            let nsi = nrow * layers + hops + 1;
            let ncost = entry.cost + e.cost;
            if ncost < best[nsi] && !best[nrow * layers..nsi].iter().any(|&b| b < ncost) {
                best[nsi] = ncost;
                prev[nsi] = Some((row as u32, hops as u32, e.triple));
                heap.push((HeapEntry { cost: ncost, node: e.to }, nrow, hops + 1));
            }
        }
    }
    hive_obs::count("store.path_query.searches", 1);
    hive_obs::count("store.path_query.pops", pops);
    let (mut row, mut hops) = found?;
    // Reconstruct.
    let mut nodes = vec![view.node_at(row)];
    let mut triples = Vec::new();
    while let Some((pr, ph, t)) = prev[row * layers + hops] {
        nodes.push(view.node_at(pr as usize));
        triples.push(t);
        row = pr as usize;
        hops = ph as usize;
    }
    nodes.reverse();
    triples.reverse();
    let score = triples.iter().map(|t| t.weight).product();
    Some(RankedPath { nodes, triples, score })
}

/// Yen's algorithm for the k cheapest loop-free paths.
fn yen_top_k(
    adj: &Traversal<'_>,
    src: TermId,
    dst: TermId,
    k: usize,
    max_hops: usize,
) -> Vec<RankedPath> {
    let mut paths: Vec<RankedPath> = Vec::new();
    let Some(first) = dijkstra(adj, src, dst, &[], &[], max_hops) else {
        return paths;
    };
    paths.push(first);
    let mut candidates: Vec<RankedPath> = Vec::new();
    while paths.len() < k {
        let Some(last) = paths.last().cloned() else {
            break;
        };
        for spur_idx in 0..last.nodes.len() - 1 {
            let spur_node = last.nodes[spur_idx];
            let root_nodes = &last.nodes[..=spur_idx];
            let root_triples = &last.triples[..spur_idx];
            // Ban edges used by previous paths sharing this root.
            let mut banned_edges: Vec<EdgeKey> = Vec::new();
            for p in &paths {
                if p.nodes.len() > spur_idx && p.nodes[..=spur_idx] == *root_nodes {
                    if let Some(t) = p.triples.get(spur_idx) {
                        let from = p.nodes[spur_idx];
                        let to = p.nodes[spur_idx + 1];
                        banned_edges.push((from, to, t.p, t.s));
                    }
                }
            }
            let remaining_hops = max_hops.saturating_sub(spur_idx);
            if remaining_hops == 0 {
                continue;
            }
            // Ban root nodes (except the spur node) to keep paths loop-free.
            let banned_nodes = &root_nodes[..spur_idx];
            if let Some(spur) =
                dijkstra(adj, spur_node, dst, banned_nodes, &banned_edges, remaining_hops)
            {
                let mut nodes = root_nodes.to_vec();
                nodes.extend_from_slice(&spur.nodes[1..]);
                let mut triples = root_triples.to_vec();
                triples.extend_from_slice(&spur.triples);
                let score = triples.iter().map(|t| t.weight).product();
                let cand = RankedPath { nodes, triples, score };
                if !paths.contains(&cand) && !candidates.contains(&cand) {
                    candidates.push(cand);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Take the strongest candidate (max score = min cost).
        let Some(best_idx) = candidates
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.score.total_cmp(&b.score))
            .map(|(i, _)| i)
        else {
            break;
        };
        paths.push(candidates.swap_remove(best_idx));
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TripleStore {
        // a -> b -> d (0.9 * 0.9 = 0.81)
        // a -> c -> d (0.5 * 0.5 = 0.25)
        // a -> d direct (0.3)
        let mut st = TripleStore::new();
        let ins = |st: &mut TripleStore, s: &str, o: &str, w: f64| {
            st.insert(Term::iri(s), Term::iri("rel"), Term::iri(o), w).unwrap();
        };
        ins(&mut st, "a", "b", 0.9);
        ins(&mut st, "b", "d", 0.9);
        ins(&mut st, "a", "c", 0.5);
        ins(&mut st, "c", "d", 0.5);
        ins(&mut st, "a", "d", 0.3);
        st
    }

    #[test]
    fn strongest_path_wins() {
        let st = diamond();
        let paths = PathQuery::new(Term::iri("a"), Term::iri("d"))
            .run(&st)
            .unwrap();
        assert_eq!(paths.len(), 1);
        assert!((paths[0].score - 0.81).abs() < 1e-12);
        assert_eq!(paths[0].hops(), 2);
    }

    #[test]
    fn top_k_ordering() {
        let st = diamond();
        let paths = PathQuery::new(Term::iri("a"), Term::iri("d"))
            .top_k(3)
            .run(&st)
            .unwrap();
        assert_eq!(paths.len(), 3);
        assert!((paths[0].score - 0.81).abs() < 1e-12);
        assert!((paths[1].score - 0.30).abs() < 1e-12);
        assert!((paths[2].score - 0.25).abs() < 1e-12);
        // Scores non-increasing.
        for w in paths.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn max_hops_prunes() {
        let st = diamond();
        let paths = PathQuery::new(Term::iri("a"), Term::iri("d"))
            .max_hops(1)
            .run(&st)
            .unwrap();
        assert_eq!(paths.len(), 1);
        assert!((paths[0].score - 0.3).abs() < 1e-12);
    }

    #[test]
    fn undirected_traversal() {
        let mut st = TripleStore::new();
        st.insert(Term::iri("x"), Term::iri("rel"), Term::iri("y"), 0.8)
            .unwrap();
        // y -> x only exists via the reverse direction.
        let paths = PathQuery::new(Term::iri("y"), Term::iri("x")).run(&st).unwrap();
        assert_eq!(paths.len(), 1);
        let none = PathQuery::new(Term::iri("y"), Term::iri("x"))
            .directed()
            .run(&st)
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn predicate_restriction() {
        let mut st = TripleStore::new();
        st.insert(Term::iri("a"), Term::iri("good"), Term::iri("b"), 0.5)
            .unwrap();
        st.insert(Term::iri("a"), Term::iri("bad"), Term::iri("b"), 0.9)
            .unwrap();
        let paths = PathQuery::new(Term::iri("a"), Term::iri("b"))
            .over_predicates(vec![Term::iri("good")])
            .run(&st)
            .unwrap();
        assert_eq!(paths.len(), 1);
        assert!((paths[0].score - 0.5).abs() < 1e-12);
    }

    #[test]
    fn literal_objects_not_traversed() {
        let mut st = TripleStore::new();
        st.insert(Term::iri("a"), Term::iri("name"), Term::str("Ann"), 1.0)
            .unwrap();
        st.insert(Term::iri("b"), Term::iri("name"), Term::str("Ann"), 1.0)
            .unwrap();
        // a and b share a literal, but literals are attributes, not hops.
        let paths = PathQuery::new(Term::iri("a"), Term::iri("b")).run(&st).unwrap();
        assert!(paths.is_empty());
    }

    #[test]
    fn errors() {
        let st = diamond();
        assert!(matches!(
            PathQuery::new(Term::iri("a"), Term::iri("a")).run(&st),
            Err(StoreError::BadPathQuery(_))
        ));
        assert!(matches!(
            PathQuery::new(Term::iri("a"), Term::iri("zzz")).run(&st),
            Err(StoreError::UnknownTerm(_))
        ));
    }

    #[test]
    fn explanation_renders() {
        let st = diamond();
        let paths = PathQuery::new(Term::iri("a"), Term::iri("d")).run(&st).unwrap();
        let text = paths[0].explain(st.dict());
        assert!(text.contains("<a>"));
        assert!(text.contains("<d>"));
        assert!(text.contains("->"));
    }

    #[test]
    fn cached_view_matches_fresh_run() {
        let st = diamond();
        let view = GraphView::build(&st);
        let q = PathQuery::new(Term::iri("a"), Term::iri("d")).top_k(3);
        let fresh = q.run(&st).unwrap();
        let cached = q.run_on(st.dict(), &view).unwrap();
        assert_eq!(fresh, cached);
        // The same snapshot serves directed queries: every edge points
        // away from `a`, so nothing is reachable from `d`.
        let directed = PathQuery::new(Term::iri("d"), Term::iri("a"))
            .directed()
            .run_on(st.dict(), &view)
            .unwrap();
        assert!(directed.is_empty());
    }

    #[test]
    fn each_search_counts_its_heap_pops() {
        let st = diamond();
        hive_obs::with_level(hive_obs::Level::Counts, || {
            hive_obs::reset();
            PathQuery::new(Term::iri("a"), Term::iri("d")).top_k(3).run(&st).unwrap();
            let counts = hive_obs::snapshot();
            // Yen: the first path a-b-d, its two spurs, then a-d's one spur.
            assert_eq!(counts.counter("store.path_query.searches"), 4);
            assert_eq!(counts.counter("store.path_query.pops"), 10);
            hive_obs::reset();
        });
    }

    /// FNV-1a over little-endian words.
    struct Fnv(u64);

    impl Fnv {
        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    /// Every returned path's bits, pinned over seeded random stores:
    /// 4-40 nodes, n-5n triples over 1-3 predicates, weights on the
    /// `rel:*` export's grid of tenths in [0.5, 1] (half of them as the
    /// co-author weight computes them), so equal-cost ties are common.
    /// Queries mix k, hop budgets, directed and predicate-restricted
    /// traversal, and unknown or equal endpoints, whose errors are
    /// hashed too.
    #[test]
    fn ranked_path_bits_are_pinned() {
        // Recorded against the search before hop dominance and O(1) row lookup.
        const GOLDEN: u64 = 0x6b99_629a_9e75_5e9b;
        const GRID: [f64; 6] = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
        let mut rng = hive_rng::Rng::seed_from_u64(18);
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let (mut paths, mut errors) = (0usize, 0usize);
        for _ in 0..400 {
            let n: usize = rng.gen_range(4..=40);
            let preds: usize = rng.gen_range(1..=3);
            let mut st = TripleStore::new();
            for _ in 0..rng.gen_range(n..=5 * n) {
                let (s, o) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let p = rng.gen_range(0..preds);
                let w = if rng.gen_bool(0.5) {
                    GRID[rng.gen_range(0..GRID.len())]
                } else {
                    let count = f64::from(rng.gen_range(1..=6u32));
                    (0.5 + 0.1 * count).min(1.0)
                };
                let node = |i: usize| Term::iri(format!("n{i}"));
                st.insert(node(s), Term::iri(format!("p{p}")), node(o), w).unwrap();
            }
            let view = GraphView::build(&st);
            for _ in 0..6 {
                // Index n names a node the store does not hold.
                let (s, o) = (rng.gen_range(0..=n), rng.gen_range(0..=n));
                let mut q = PathQuery::new(Term::iri(format!("n{s}")), Term::iri(format!("n{o}")))
                    .top_k([1, 2, 3, 5, 8][rng.gen_range(0..5usize)])
                    .max_hops([1, 2, 3, 4, 6][rng.gen_range(0..5usize)]);
                if rng.gen_bool(0.3) {
                    q = q.directed();
                }
                if rng.gen_bool(0.3) {
                    // Index `preds` names a predicate the store does not hold.
                    let only = rng.gen_range(0..=preds);
                    q = q.over_predicates(vec![Term::iri(format!("p{only}"))]);
                }
                match q.run_on(st.dict(), &view) {
                    Ok(found) => {
                        h.word(found.len() as u64);
                        for p in &found {
                            paths += 1;
                            h.word(p.nodes.len() as u64);
                            for node in &p.nodes {
                                h.word(u64::from(node.0));
                            }
                            for t in &p.triples {
                                for id in [t.s, t.p, t.o] {
                                    h.word(u64::from(id.0));
                                }
                                h.word(t.weight.to_bits());
                            }
                            h.word(p.score.to_bits());
                        }
                    }
                    Err(e) => {
                        errors += 1;
                        for b in e.to_string().bytes() {
                            h.word(u64::from(b));
                        }
                    }
                }
            }
        }
        assert!(paths > 2_000 && errors > 100, "{paths} paths, {errors} errors");
        assert_eq!(h.0, GOLDEN, "ranked path bits moved ({paths} paths, {errors} errors)");
    }

    #[test]
    fn loop_free_paths() {
        let st = diamond();
        let paths = PathQuery::new(Term::iri("a"), Term::iri("d"))
            .top_k(5)
            .max_hops(6)
            .run(&st)
            .unwrap();
        for p in &paths {
            let uniq: std::collections::HashSet<_> = p.nodes.iter().collect();
            assert_eq!(uniq.len(), p.nodes.len(), "path has a loop: {:?}", p.nodes);
        }
    }
}
