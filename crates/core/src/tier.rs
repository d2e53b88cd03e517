//! One maintenance protocol for the facade's three derived tiers: the
//! [`KnowledgeNetwork`], the [`RelSnapshot`] and the [`PprCache`]. Each
//! implements [`Derived`]; one [`Tier`] per structure
//! stamps it with the database generation it reflects and, on a stale
//! stamp, classifies the journal window it borrows from
//! [`HiveDb::deltas_since`] *before* it touches the value:
//!
//! * no window, or a structural delta → cold build with no copy first
//!   (`core.<t>.miss`);
//! * no delta in the window the tier is [`Derived::affected_by`] → the
//!   same `Arc` under the new stamp (`core.<t>.delta`);
//! * otherwise → `Arc::make_mut` plus [`Derived::patch`]
//!   (`core.<t>.delta`). `make_mut` copies exactly when a published epoch
//!   still pins the old value, so that epoch stays frozen.
//!
//! Re-stamping is exact: a delta that does not affect a tier is one its
//! patch applies as a no-op ([`KnowledgeNetwork::apply_delta`] ignores
//! `Neutral`, [`crate::knowledge::apply_rel_delta`] also ignores
//! `ViewPaper`, and the memo only clears on graph edges), so the
//! re-stamped value is what a patch would have produced, and a patch is
//! bit-identical to a cold build (the replay-order argument, DESIGN.md
//! §11).

use crate::db::{DbDelta, HiveDb};
use crate::knowledge::{apply_rel_delta, FusionWeights, KnowledgeNetwork};
use crate::ppr::PprCache;
use hive_store::{GraphView, TripleStore};
use std::sync::{Arc, LockResult, Mutex, PoisonError};

/// Recovers the guard from a possibly poisoned lock result. Tier slots,
/// memos and the serving layer's publish slot hold derived or
/// generation-stamped values that each write replaces whole: a panic
/// mid-update leaves at worst a stale entry, which the stamp check
/// rejects, so poisoning is recoverable by construction.
pub(crate) fn unpoison<G>(res: LockResult<G>) -> G {
    res.unwrap_or_else(PoisonError::into_inner)
}

/// A structure derived from the [`HiveDb`] that a [`Tier`] keeps current
/// by patching it forward through the delta journal.
pub(crate) trait Derived: Clone {
    /// Counter bumped when the stamp is current.
    const HIT: &'static str;
    /// Counter bumped when the value moves forward by re-stamp or patch.
    const DELTA: &'static str;
    /// Counter bumped when the value is built cold.
    const MISS: &'static str;
    /// Span opened around a patch.
    const PATCH_SPAN: &'static str;
    /// Span opened around a cold build (`None` when the build is trivial).
    const BUILD_SPAN: Option<&'static str>;

    /// Whether [`Derived::patch`] changes the value for `d`. The default
    /// suits the kn tier and the memo: every graph edge changes them.
    fn affected_by(d: &DbDelta) -> bool {
        d.touches_graph()
    }

    /// Applies `window` (no delta structural, at least one the value is
    /// affected by) in place.
    fn patch(&mut self, window: &[DbDelta]);
}

/// A generation-stamped cache slot for one [`Derived`] structure. Only
/// the stamp probe and the final store run under the lock, never a patch
/// or a build (lint R11).
pub(crate) struct Tier<T> {
    slot: Mutex<Option<(u64, Arc<T>)>>,
}

impl<T: Derived> Tier<T> {
    /// An empty tier: the first [`Tier::get`] builds.
    pub(crate) fn new() -> Self {
        Tier { slot: Mutex::new(None) }
    }

    /// A new slot holding this one's stamp and `Arc`: the two share the
    /// value but not the lock. A published epoch pins one per tier.
    pub(crate) fn pinned(&self) -> Self {
        Tier { slot: Mutex::new(unpoison(self.slot.lock()).clone()) }
    }

    /// The value at `db`'s current generation: the cached one, moved
    /// forward through the journal, or built by `cold` (see the module
    /// docs for the rule).
    pub(crate) fn get(&self, db: &HiveDb, cold: impl FnOnce() -> T) -> Arc<T> {
        let generation = db.generation();
        let stale = {
            let mut guard = unpoison(self.slot.lock());
            match guard.as_ref() {
                Some((stamp, value)) if *stamp == generation => {
                    hive_obs::count(T::HIT, 1);
                    return Arc::clone(value);
                }
                _ => guard.take(),
            }
        };
        let forward = stale.and_then(|(stamp, mut value)| {
            let window = db.deltas_since(stamp)?;
            if window.iter().any(DbDelta::is_structural) {
                return None;
            }
            if window.iter().any(T::affected_by) {
                let span = hive_obs::span_enter(T::PATCH_SPAN, db.now().ticks());
                Arc::make_mut(&mut value).patch(window);
                hive_obs::span_exit(span, db.now().ticks());
            }
            hive_obs::count(T::DELTA, 1);
            Some(value)
        });
        let value = forward.unwrap_or_else(|| {
            hive_obs::count(T::MISS, 1);
            let span = T::BUILD_SPAN.map(|name| hive_obs::span_enter(name, db.now().ticks()));
            let value = Arc::new(cold());
            if let Some(span) = span {
                hive_obs::span_exit(span, db.now().ticks());
            }
            value
        });
        *unpoison(self.slot.lock()) = Some((generation, Arc::clone(&value)));
        value
    }
}

impl Derived for KnowledgeNetwork {
    const HIT: &'static str = "core.kn.hit";
    const DELTA: &'static str = "core.kn.delta";
    const MISS: &'static str = "core.kn.miss";
    const PATCH_SPAN: &'static str = "kn-delta";
    const BUILD_SPAN: Option<&'static str> = Some("kn-build");

    fn patch(&mut self, window: &[DbDelta]) {
        let w = FusionWeights::default();
        for d in window {
            self.apply_delta(d, &w);
        }
        self.refresh_unified_csr();
    }
}

/// The relationship-graph snapshot: the `rel:*` triple export of the
/// knowledge network plus its [`GraphView`] CSR adjacency, so repeated
/// explanation queries skip both the export and the store scan.
#[derive(Clone)]
pub(crate) struct RelSnapshot {
    pub(crate) store: TripleStore,
    pub(crate) view: GraphView,
}

impl RelSnapshot {
    /// Cold export of `kn` over `db`, plus its CSR view.
    pub(crate) fn build(db: &HiveDb, kn: &KnowledgeNetwork) -> Self {
        let store = kn.to_store(db);
        let view = GraphView::build(&store);
        RelSnapshot { store, view }
    }
}

impl Derived for RelSnapshot {
    const HIT: &'static str = "core.rel.hit";
    const DELTA: &'static str = "core.rel.delta";
    const MISS: &'static str = "core.rel.miss";
    const PATCH_SPAN: &'static str = "rel-delta";
    const BUILD_SPAN: Option<&'static str> = Some("rel-snapshot-build");

    /// Exactly the deltas [`apply_rel_delta`] writes a triple for, so a
    /// window of paper views re-stamps the snapshot instead of copying
    /// it. Exhaustive on purpose (lint R10).
    fn affected_by(d: &DbDelta) -> bool {
        match d {
            DbDelta::Connect { .. }
            | DbDelta::Follow { .. }
            | DbDelta::CheckIn { .. }
            | DbDelta::Discuss { .. }
            | DbDelta::Attend { .. } => true,
            DbDelta::ViewPaper { .. } | DbDelta::Neutral | DbDelta::Structural => false,
        }
    }

    /// Extends the triple export with the window's events, then lets the
    /// CSR view consume the store's own delta log.
    fn patch(&mut self, window: &[DbDelta]) {
        for d in window {
            apply_rel_delta(&mut self.store, d);
        }
        if !self.view.apply_delta(&self.store) {
            self.view = GraphView::build(&self.store);
        }
    }
}

impl Derived for PprCache {
    const HIT: &'static str = "core.ppr.hit";
    const DELTA: &'static str = "core.ppr.delta";
    const MISS: &'static str = "core.ppr.miss";
    const PATCH_SPAN: &'static str = "ppr-delta";
    const BUILD_SPAN: Option<&'static str> = None;

    /// Memo entries are exact solves against one graph, so a graph
    /// change drops them all.
    fn patch(&mut self, _window: &[DbDelta]) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, WorldBuilder};

    /// The rel tier re-stamps exactly when a patch would write nothing.
    #[test]
    fn rel_affected_by_matches_what_the_patch_writes() {
        let world = WorldBuilder::new(SimConfig::small()).build();
        let u = world.db.user_ids();
        let s = world.db.session_ids()[0];
        let c = world.db.conference_ids()[0];
        let p = world.db.paper_ids()[0];
        let variants = [
            DbDelta::Neutral,
            DbDelta::Structural,
            DbDelta::Follow { follower: u[0], followee: u[1] },
            DbDelta::Connect { a: u[2], b: u[3] },
            DbDelta::CheckIn { user: u[0], session: s },
            DbDelta::Attend { user: u[1], conf: c },
            DbDelta::Discuss { author: u[2], session: s, paper: Some(p) },
            DbDelta::Discuss { author: u[2], session: s, paper: None },
            DbDelta::ViewPaper { user: u[3], paper: p },
        ];
        for d in variants {
            let mut store = TripleStore::new();
            apply_rel_delta(&mut store, &d);
            assert_eq!(RelSnapshot::affected_by(&d), !store.is_empty(), "{d:?}");
        }
    }
}
