//! Impact Neighborhood Indexing (INI) for diffusion graphs.
//!
//! Re-implementation of the idea behind paper ref \[6\] (Kim, Candan,
//! Sapino, "Impact Neighborhood Indexing (INI) in Diffusion Graphs",
//! CIKM'12), which Hive uses to discover and explain relationships.
//!
//! The *impact* of a source node on the rest of the graph is its truncated
//! decaying diffusion: mass `1` starts at the source, at each step a
//! fraction `alpha` continues along out-edges proportionally to weight and
//! `1-alpha` settles, and mass below `epsilon` is dropped. A node's
//! **impact neighborhood** is the set of nodes receiving settled mass at
//! least `epsilon`.
//!
//! Two engines answer impact queries:
//!
//! * [`RecomputeEngine`] — baseline; recomputes the diffusion per query.
//! * [`ImpactIndex`] — caches impact vectors and maintains a reverse
//!   member index so that an edge update only invalidates the sources
//!   whose neighborhoods touch the updated endpoints (the INI idea).
//!
//! Experiment E2 sweeps query/update mixes to show the index wins when
//! queries dominate and degrades gracefully under heavy updates.

use crate::graph::{Graph, NodeId};
use std::collections::{HashMap, HashSet, VecDeque};

/// Diffusion parameters shared by both engines.
#[derive(Clone, Copy, Debug)]
pub struct DiffusionParams {
    /// Continuation probability per hop in `(0, 1)`.
    pub alpha: f64,
    /// Truncation threshold: residual mass below this is dropped.
    pub epsilon: f64,
}

impl Default for DiffusionParams {
    fn default() -> Self {
        DiffusionParams { alpha: 0.5, epsilon: 1e-4 }
    }
}

/// Push-style truncated diffusion from `src` over out-edges.
///
/// Returns settled mass per reached node (including the source itself).
pub fn diffuse(g: &Graph, src: NodeId, params: DiffusionParams) -> HashMap<NodeId, f64> {
    let mut settled: HashMap<NodeId, f64> = HashMap::new();
    let mut residual: HashMap<NodeId, f64> = HashMap::new();
    residual.insert(src, 1.0);
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    queue.push_back(src);
    let mut queued: HashSet<NodeId> = HashSet::new();
    queued.insert(src);
    while let Some(u) = queue.pop_front() {
        queued.remove(&u);
        let r = residual.remove(&u).unwrap_or(0.0);
        if r < params.epsilon {
            // Too small to matter; settle what's left and stop pushing.
            *settled.entry(u).or_insert(0.0) += r;
            continue;
        }
        *settled.entry(u).or_insert(0.0) += (1.0 - params.alpha) * r;
        let ow = g.out_weight(u);
        if ow == 0.0 {
            // Dangling: remaining mass settles here.
            *settled.entry(u).or_insert(0.0) += params.alpha * r;
            continue;
        }
        for e in g.out_edges(u) {
            let share = params.alpha * r * e.weight / ow;
            let slot = residual.entry(e.neighbor).or_insert(0.0);
            *slot += share;
            if *slot >= params.epsilon && queued.insert(e.neighbor) {
                queue.push_back(e.neighbor);
            }
        }
    }
    // Only keep entries above the reporting threshold.
    settled.retain(|_, v| *v >= params.epsilon);
    settled
}

/// Common interface over the indexed and baseline engines, so experiment
/// harnesses can drive either uniformly.
pub trait ImpactQueryEngine {
    /// Adds (or strengthens) a directed edge, updating internal state.
    fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64);
    /// The impact neighborhood of `src`.
    fn impact(&mut self, src: NodeId) -> HashMap<NodeId, f64>;
    /// Engine name for reporting.
    fn name(&self) -> &'static str;
}

/// Baseline: recomputes the diffusion on every query.
pub struct RecomputeEngine {
    graph: Graph,
    params: DiffusionParams,
}

impl RecomputeEngine {
    /// Wraps a graph.
    pub fn new(graph: Graph, params: DiffusionParams) -> Self {
        RecomputeEngine { graph, params }
    }

    /// Access to the underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

impl ImpactQueryEngine for RecomputeEngine {
    fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) {
        self.graph.add_edge(u, v, w);
    }

    fn impact(&mut self, src: NodeId) -> HashMap<NodeId, f64> {
        diffuse(&self.graph, src, self.params)
    }

    fn name(&self) -> &'static str {
        "recompute"
    }
}

/// INI: cached impact vectors with reverse-membership invalidation.
///
/// Invalidation is *lazy*: [`ImpactQueryEngine::add_edge`] only marks
/// the updated endpoint dirty (O(1)), and the reverse-index walk that
/// evicts touched vectors runs once at the next query (the private
/// `sweep`). A burst of updates between queries pays the walk once
/// instead of per edge, and sources evicted by one dirty node are
/// already gone when the next dirty node sweeps.
pub struct ImpactIndex {
    graph: Graph,
    params: DiffusionParams,
    /// Cached impact vector per source.
    cache: HashMap<NodeId, HashMap<NodeId, f64>>,
    /// Reverse index: node -> sources whose cached neighborhood contains it.
    members: HashMap<NodeId, HashSet<NodeId>>,
    /// Endpoints of edges added since the last sweep; their touching
    /// vectors are evicted lazily on the next query.
    dirty: HashSet<NodeId>,
    /// Cache statistics for experiments.
    hits: u64,
    misses: u64,
}

impl ImpactIndex {
    /// Wraps a graph with an empty (lazy) index.
    pub fn new(graph: Graph, params: DiffusionParams) -> Self {
        ImpactIndex {
            graph,
            params,
            cache: HashMap::new(),
            members: HashMap::new(),
            dirty: HashSet::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Eagerly computes impact vectors for all nodes.
    pub fn build_full(&mut self) {
        self.sweep();
        for src in self.graph.nodes().collect::<Vec<_>>() {
            self.materialize(src);
        }
    }

    /// `(cache_hits, cache_misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Access to the underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    fn invalidate_touching(&mut self, node: NodeId) {
        // Any cached source whose neighborhood contains `node` may change.
        let sources = self.members.remove(&node).unwrap_or_default();
        for src in sources {
            if let Some(vec) = self.cache.remove(&src) {
                for member in vec.keys() {
                    if let Some(set) = self.members.get_mut(member) {
                        set.remove(&src);
                    }
                }
            }
        }
    }

    /// Drains the dirty set, evicting every cached vector that touches a
    /// dirty endpoint. Runs before any cache read so queries never see a
    /// stale vector.
    fn sweep(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        // Drain order of the HashSet is nondeterministic; sort so the
        // eviction sequence (and the hits/misses it produces) is
        // run-stable across processes.
        let mut dirty: Vec<NodeId> = self.dirty.drain().collect();
        dirty.sort_unstable();
        for node in dirty {
            self.invalidate_touching(node);
        }
    }

    fn materialize(&mut self, src: NodeId) -> HashMap<NodeId, f64> {
        let vec = diffuse(&self.graph, src, self.params);
        for member in vec.keys() {
            self.members.entry(*member).or_default().insert(src);
        }
        self.cache.insert(src, vec.clone());
        vec
    }
}

impl ImpactQueryEngine for ImpactIndex {
    fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) {
        self.graph.add_edge(u, v, w);
        // Sources reaching `u` can now reach further through the new edge;
        // `u`'s own vector changes too. Vectors not touching `u` keep the
        // same diffusion and stay valid. (`v` gaining in-mass does not
        // change any vector that never visited `u`.) The eviction walk is
        // deferred to the next query: updates are O(1).
        self.dirty.insert(u);
    }

    fn impact(&mut self, src: NodeId) -> HashMap<NodeId, f64> {
        self.sweep();
        if let Some(vec) = self.cache.get(&src) {
            self.hits += 1;
            return vec.clone();
        }
        self.misses += 1;
        self.materialize(src)
    }

    fn name(&self) -> &'static str {
        "ini-index"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let ids: Vec<_> = (0..4).map(|i| g.add_node(format!("n{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 1.0);
        }
        (g, ids)
    }

    #[test]
    fn diffusion_mass_is_conserved() {
        let (g, ids) = line_graph();
        let params = DiffusionParams { alpha: 0.5, epsilon: 1e-9 };
        let imp = diffuse(&g, ids[0], params);
        let total: f64 = imp.values().sum();
        assert!((total - 1.0).abs() < 1e-6, "mass should be ~1, got {total}");
    }

    #[test]
    fn impact_decays_with_distance() {
        let (g, ids) = line_graph();
        let params = DiffusionParams { alpha: 0.5, epsilon: 1e-9 };
        let imp = diffuse(&g, ids[0], params);
        let vals: Vec<f64> = ids.iter().map(|n| imp.get(n).copied().unwrap_or(0.0)).collect();
        // Settled mass decreases along the chain until the dangling tail.
        assert!(vals[0] > vals[1]);
        assert!(vals[1] > vals[2]);
    }

    #[test]
    fn truncation_limits_neighborhood() {
        let (g, ids) = line_graph();
        let tight = DiffusionParams { alpha: 0.5, epsilon: 0.2 };
        let imp = diffuse(&g, ids[0], tight);
        assert!(imp.len() < 4, "tight epsilon should truncate, got {}", imp.len());
    }

    #[test]
    fn engines_agree() {
        let (g, ids) = line_graph();
        let params = DiffusionParams::default();
        let mut base = RecomputeEngine::new(g.clone(), params);
        let mut idx = ImpactIndex::new(g, params);
        for &src in &ids {
            let a = base.impact(src);
            let b = idx.impact(src);
            assert_eq!(a.len(), b.len());
            for (k, v) in &a {
                assert!((b[k] - v).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn index_caches_and_invalidates() {
        let (g, ids) = line_graph();
        let params = DiffusionParams { alpha: 0.5, epsilon: 1e-6 };
        let mut idx = ImpactIndex::new(g, params);
        let before = idx.impact(ids[0]);
        idx.impact(ids[0]);
        assert_eq!(idx.stats(), (1, 1), "second query should hit the cache");
        // Add an edge from the tail: ids[0]'s neighborhood contains n3, and
        // the new edge leaves n3, so ids[0]'s vector must be invalidated.
        let g_n3 = ids[3];
        let n_new = {
            // New node reachable only through the new edge.
            // (Engines own their graph, so add through the index.)
            idx.graph.add_node("n_new")
        };
        idx.add_edge(g_n3, n_new, 1.0);
        let after = idx.impact(ids[0]);
        assert!(after.contains_key(&n_new), "diffusion should now reach n_new");
        assert_ne!(before.len(), after.len());
        // Consistency with a fresh recompute.
        let mut base = RecomputeEngine::new(idx.graph().clone(), params);
        let fresh = base.impact(ids[0]);
        assert_eq!(after.len(), fresh.len());
        for (k, v) in &fresh {
            assert!((after[k] - v).abs() < 1e-12);
        }
    }

    #[test]
    fn untouched_vectors_stay_cached() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1.0);
        g.add_edge(c, d, 1.0);
        let mut idx = ImpactIndex::new(g, DiffusionParams::default());
        idx.impact(a); // miss 1
        idx.impact(c); // miss 2
        // Edge in the c/d component does not touch a's neighborhood.
        idx.add_edge(d, c, 1.0);
        idx.impact(a); // hit
        assert_eq!(idx.stats(), (1, 2));
    }

    #[test]
    fn update_bursts_sweep_once_at_the_next_query() {
        let (g, ids) = line_graph();
        let params = DiffusionParams { alpha: 0.5, epsilon: 1e-6 };
        let mut idx = ImpactIndex::new(g, params);
        idx.impact(ids[0]); // miss
        // A burst of updates marks endpoints dirty without walking the
        // reverse index...
        let extra: Vec<NodeId> = (0..8).map(|i| idx.graph.add_node(format!("x{i}"))).collect();
        for &x in &extra {
            idx.add_edge(ids[3], x, 1.0);
        }
        assert_eq!(idx.dirty.len(), 1, "burst collapses to one dirty endpoint");
        // ...and the next query sweeps once, then recomputes.
        let after = idx.impact(ids[0]);
        assert!(idx.dirty.is_empty(), "query drained the dirty set");
        for &x in &extra {
            assert!(after.contains_key(&x) || after[&ids[3]] >= params.epsilon);
        }
        let mut base = RecomputeEngine::new(idx.graph().clone(), params);
        let fresh = base.impact(ids[0]);
        assert_eq!(after.len(), fresh.len());
        for (k, v) in &fresh {
            assert!((after[k] - v).abs() < 1e-12);
        }
    }

    #[test]
    fn build_full_prewarms() {
        let (g, ids) = line_graph();
        let mut idx = ImpactIndex::new(g, DiffusionParams::default());
        idx.build_full();
        for &src in &ids {
            idx.impact(src);
        }
        let (hits, misses) = idx.stats();
        assert_eq!(hits, 4);
        assert_eq!(misses, 0);
    }
}
