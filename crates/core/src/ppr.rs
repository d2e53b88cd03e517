//! Generation-scoped PPR result cache and the delta hook feeding the
//! incremental engine.
//!
//! Serving-path PPR must be a *pure function of (graph, seeds, config)*:
//! the sim-harness oracles compare facade-vs-cold, patched-vs-rebuilt,
//! and leader-vs-follower fingerprints bit-for-bit (`f64::to_bits`), so
//! a served score vector may never drift from what a cold
//! [`personalized_pagerank_csr`] run would produce. [`PprCache`] is
//! therefore an *exact memo tier*: it answers repeated queries for the
//! same canonicalized seed distribution with the identical
//! power-iteration output, solved once per (generation, seed-set) —
//! peer recommendation, contextual search, and the fingerprint battery
//! all re-ask the same seed distributions against one graph generation,
//! which is where the serving win lives. The forward-push engine
//! ([`DynamicPpr`]) rides the same journal through [`apply_ppr_delta`]
//! and answers *approximate* queries within its certified push
//! tolerance; its budgeted fallback re-solves bit-identical to cold.

use crate::db::DbDelta;
use crate::knowledge::FusionWeights;
use hive_graph::{personalized_pagerank_csr, CsrView, DynamicPpr, NodeId, PprConfig};
use crate::tier::unpoison;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Canonical cache key: sorted `(node index, raw mass bits)` plus the
/// iteration config bits — everything the power iteration's output
/// depends on besides the graph itself.
type PprKey = (Vec<(u32, u64)>, (u64, u64, u32));

fn key_of(seeds: &HashMap<NodeId, f64>, cfg: &PprConfig) -> PprKey {
    // lint:allow(determinism-taint) -- sorted into node order on the next line
    let mut s: Vec<(u32, u64)> = seeds.iter().map(|(&n, &m)| (n.0, m.to_bits())).collect();
    s.sort_unstable();
    (s, (cfg.damping.to_bits(), cfg.tolerance.to_bits(), cfg.max_iters as u32))
}

/// Exact memoized PPR results for one graph snapshot.
///
/// One instance is pinned per knowledge-network generation (the facade
/// patches it forward through the journal; served [`Epoch`]s pin it
/// like the kn/rel/idx tiers), so entries never outlive the graph they
/// were solved against.
///
/// [`Epoch`]: crate::serve::Epoch
pub struct PprCache {
    entries: Mutex<BTreeMap<PprKey, Arc<Vec<f64>>>>,
}

impl PprCache {
    /// Empty cache for a fresh graph snapshot.
    pub fn new() -> Self {
        PprCache { entries: Mutex::new(BTreeMap::new()) }
    }

    /// Memoized exact PPR: bit-identical to calling
    /// [`personalized_pagerank_csr`] directly, solved at most once per
    /// canonical `(seeds, cfg)` against this snapshot's CSR.
    pub fn scores(&self, csr: &CsrView, seeds: &HashMap<NodeId, f64>, cfg: PprConfig) -> Arc<Vec<f64>> {
        let key = key_of(seeds, &cfg);
        {
            let guard = unpoison(self.entries.lock());
            if let Some(hit) = guard.get(&key) {
                hive_obs::count("core.ppr.memo_hit", 1);
                return Arc::clone(hit);
            }
        }
        // Solve outside the lock (R11 discipline: never build under a
        // cache lock); concurrent solvers race benignly — the first
        // insert wins and both results are bitwise identical anyway.
        let solved = Arc::new(personalized_pagerank_csr(csr, seeds, cfg));
        hive_obs::count("core.ppr.solve", 1);
        let mut guard = unpoison(self.entries.lock());
        Arc::clone(guard.entry(key).or_insert(solved))
    }

    /// Number of memoized seed distributions (test introspection).
    pub fn len(&self) -> usize {
        unpoison(self.entries.lock()).len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized result — called when a journal-covered
    /// graph-touching delta advances the snapshot this cache is keyed
    /// to (O(delta) invalidation instead of a rebuild: the allocation
    /// and the tier slot survive).
    pub fn clear(&self) {
        unpoison(self.entries.lock()).clear();
    }
}

impl Default for PprCache {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for PprCache {
    fn clone(&self) -> Self {
        let entries = unpoison(self.entries.lock()).clone();
        PprCache { entries: Mutex::new(entries) }
    }
}

/// Routes one journaled [`DbDelta`] into a [`DynamicPpr`] engine — the
/// same edge sequence `apply_unified_delta` replays into the unified
/// graph, so an engine fed every delta tracks the served graph exactly.
pub fn apply_ppr_delta(engine: &mut DynamicPpr, w: &FusionWeights, d: &DbDelta) {
    fn und(engine: &mut DynamicPpr, a: String, b: String, wt: f64) {
        let (na, nb) = (engine.add_node(a), engine.add_node(b));
        engine.apply_undirected_edge(na, nb, wt);
    }
    match *d {
        DbDelta::Connect { a, b } => und(engine, a.iri(), b.iri(), w.connection),
        DbDelta::Follow { follower, followee } => {
            und(engine, follower.iri(), followee.iri(), w.follow)
        }
        DbDelta::CheckIn { user, session } => und(engine, user.iri(), session.iri(), w.checkin),
        DbDelta::Attend { user, conf } => und(engine, user.iri(), conf.iri(), w.attendance),
        DbDelta::Discuss { author, session, paper } => {
            und(engine, author.iri(), session.iri(), w.discussion);
            if let Some(p) = paper {
                und(engine, author.iri(), p.iri(), w.view);
            }
        }
        DbDelta::ViewPaper { user, paper } => und(engine, user.iri(), paper.iri(), w.view),
        DbDelta::Neutral | DbDelta::Structural => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_graph::Graph;

    fn toy() -> (Graph, HashMap<NodeId, f64>) {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..5).map(|i| g.add_node(format!("n{i}"))).collect();
        for w in ids.windows(2) {
            g.add_undirected_edge(w[0], w[1], 0.8);
        }
        let mut seeds = HashMap::new();
        seeds.insert(ids[0], 1.0);
        (g, seeds)
    }

    #[test]
    fn memo_is_bit_identical_to_direct_solve() {
        let (g, seeds) = toy();
        let csr = CsrView::build(&g);
        let cache = PprCache::new();
        let cfg = PprConfig::default();
        let direct = personalized_pagerank_csr(&csr, &seeds, cfg);
        let first = cache.scores(&csr, &seeds, cfg);
        let second = cache.scores(&csr, &seeds, cfg);
        assert_eq!(cache.len(), 1, "one memo entry for one seed set");
        for ((a, b), c) in direct.iter().zip(first.iter()).zip(second.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn distinct_configs_memoize_separately() {
        let (g, seeds) = toy();
        let csr = CsrView::build(&g);
        let cache = PprCache::new();
        let _ = cache.scores(&csr, &seeds, PprConfig::default());
        let _ = cache.scores(&csr, &seeds, PprConfig { damping: 0.6, ..Default::default() });
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }
}
