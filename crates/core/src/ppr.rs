//! Generation-scoped PPR result cache.
//!
//! Serving-path PPR must be a *pure function of (graph, seeds, config)*:
//! the sim-harness oracles compare facade-vs-cold, patched-vs-rebuilt,
//! and leader-vs-follower fingerprints bit-for-bit (`f64::to_bits`), so
//! a served score vector may never drift from what a cold
//! [`personalized_pagerank_csr`] run would produce. [`PprCache`] is
//! therefore an *exact memo tier*: it answers repeated queries for the
//! same canonicalized seed distribution with the identical
//! power-iteration output, solved once per (generation, seed-set) and
//! holding at most [`PprCache::CAP`] of them — peer recommendation,
//! contextual search, and the fingerprint battery all re-ask the same
//! seed distributions against one graph generation, which is where the
//! serving win lives.

use hive_graph::{personalized_pagerank_csr, CsrView, NodeId, PprConfig};
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
/// were solved against. At most [`PprCache::CAP`] entries are kept.
///
/// [`Epoch`]: crate::serve::Epoch
pub struct PprCache {
    memo: Mutex<Memo>,
}

/// The memo proper: solved score vectors by key, each stamped with its
/// insertion number so the oldest can be found for eviction.
#[derive(Clone, Default)]
struct Memo {
    entries: BTreeMap<PprKey, (u64, Arc<Vec<f64>>)>,
    inserted: u64,
}

impl PprCache {
    /// Most seed distributions one memo holds. Inserting past it evicts
    /// the oldest insertion and counts `core.ppr.memo_evict`. An entry is
    /// one score per graph node, so on the large simulated world (928
    /// nodes) a full memo holds about 7.6 MB.
    pub const CAP: usize = 1_024;

    /// Empty cache for a fresh graph snapshot.
    pub fn new() -> Self {
        PprCache { memo: Mutex::new(Memo::default()) }
    }

    /// Memoized exact PPR: bit-identical to calling
    /// [`personalized_pagerank_csr`] directly, solved at most once per
    /// canonical `(seeds, cfg)` against this snapshot's CSR.
    pub fn scores(&self, csr: &CsrView, seeds: &HashMap<NodeId, f64>, cfg: PprConfig) -> Arc<Vec<f64>> {
        let key = key_of(seeds, &cfg);
        {
            let guard = unpoison(self.memo.lock());
            if let Some((_, hit)) = guard.entries.get(&key) {
                hive_obs::count("core.ppr.memo_hit", 1);
                return Arc::clone(hit);
            }
        }
        // Solve outside the lock (R11 discipline: never build under a
        // cache lock); concurrent solvers race benignly — the first
        // insert wins and both results are bitwise identical anyway.
        let solved = Arc::new(personalized_pagerank_csr(csr, seeds, cfg));
        hive_obs::count("core.ppr.solve", 1);
        let mut guard = unpoison(self.memo.lock());
        let memo = &mut *guard;
        if let Some((_, first)) = memo.entries.get(&key) {
            return Arc::clone(first);
        }
        if memo.entries.len() >= Self::CAP {
            // An O(CAP) scan, run only at the cap: far cheaper than the
            // solve it follows.
            let oldest =
                memo.entries.iter().min_by_key(|(_, (at, _))| *at).map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                memo.entries.remove(&oldest);
                hive_obs::count("core.ppr.memo_evict", 1);
            }
        }
        memo.inserted += 1;
        memo.entries.insert(key, (memo.inserted, Arc::clone(&solved)));
        solved
    }

    /// Number of memoized seed distributions, at most [`PprCache::CAP`].
    pub fn len(&self) -> usize {
        unpoison(self.memo.lock()).entries.len()
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
        *unpoison(self.memo.lock()) = Memo::default();
    }
}

impl Default for PprCache {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for PprCache {
    fn clone(&self) -> Self {
        let memo = unpoison(self.memo.lock()).clone();
        PprCache { memo: Mutex::new(memo) }
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

    #[test]
    fn memo_evicts_the_oldest_insertion_past_its_cap() {
        let mut g = Graph::new();
        let ids: Vec<NodeId> =
            (0..PprCache::CAP + 3).map(|i| g.add_node(format!("n{i}"))).collect();
        for w in ids.windows(2) {
            g.add_undirected_edge(w[0], w[1], 1.0);
        }
        let csr = CsrView::build(&g);
        let cfg = PprConfig { max_iters: 2, ..PprConfig::default() };
        let seed = |i: usize| -> HashMap<NodeId, f64> { [(ids[i], 1.0)].into_iter().collect() };
        let cache = PprCache::new();
        hive_obs::with_level(hive_obs::Level::Counts, || {
            hive_obs::reset();
            let first = cache.scores(&csr, &seed(0), cfg);
            for i in 1..PprCache::CAP + 3 {
                let _ = cache.scores(&csr, &seed(i), cfg);
            }
            assert_eq!(cache.len(), PprCache::CAP);
            assert_eq!(hive_obs::snapshot().counter("core.ppr.memo_evict"), 3);
            // The first insertion was evicted: asking again re-solves
            // (evicting the next oldest) to the same bits.
            let again = cache.scores(&csr, &seed(0), cfg);
            let snap = hive_obs::snapshot();
            assert_eq!(snap.counter("core.ppr.solve"), PprCache::CAP as u64 + 4);
            assert_eq!(snap.counter("core.ppr.memo_evict"), 4);
            assert_eq!(cache.len(), PprCache::CAP);
            assert!(!Arc::ptr_eq(&first, &again), "an evicted key is solved afresh");
            assert!(again.iter().zip(first.iter()).all(|(a, b)| a.to_bits() == b.to_bits()));
            // The newest insertions are still memoized.
            let _ = cache.scores(&csr, &seed(PprCache::CAP + 2), cfg);
            assert_eq!(hive_obs::snapshot().counter("core.ppr.memo_hit"), 1);
            hive_obs::reset();
        });
    }
}
