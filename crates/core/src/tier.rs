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
//!   (`core.<t>.delta` and `core.<t>.patch`). `make_mut` copies exactly
//!   when a published epoch still pins the old value, so that epoch stays
//!   frozen.
//!
//! Re-stamping is exact: a delta that does not affect a tier is one its
//! patch applies as a no-op (a `Neutral` delta has no
//! [`crate::knowledge::delta_edges`], the relationship patch writes only
//! [`crate::knowledge::rel_triple`]s, which `ViewPaper` has none of, and
//! the memo only clears on graph edges), so the re-stamped value is what
//! a patch would have produced, and a patch is bit-identical to a cold
//! build (the replay-order argument, DESIGN.md §11).
//!
//! The knowledge tier keys no node by a string and holds no adjacency
//! list: its unified layer is one flat [`hive_graph::UndirectedCsr`]
//! whose nodes are numbered by arithmetic. A cold build adds the static
//! edges and the replayed log's [`crate::knowledge::delta_edges`] to an
//! empty one; a patch adds the window's edges in place, so a copy for a
//! pinned epoch is a few `memcpy`s.
//!
//! The relationship tier holds only what an explanation reads: the term
//! dictionary of the `rel:*` export and its [`GraphView`]. One routine
//! interns triples for both of its paths: a cold build interns the
//! export (`knowledge::rel_export`) and folds it into a view with
//! [`GraphView::from_upserts`]; a patch maps each window delta to its
//! triple, interns it (copying the shared dictionary only when a term is
//! new), and hands the window to [`GraphView::upsert`].

use crate::db::{DbDelta, HiveDb};
use crate::knowledge::{rel_export, rel_triple, FusionWeights, KnowledgeNetwork, RelTriple};
use crate::ppr::PprCache;
use hive_store::{GraphView, StoredTriple, TermDict};
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
    /// Counter bumped when the value moves forward by a patch.
    const PATCH: &'static str;
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
                hive_obs::count(T::PATCH, 1);
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
    const PATCH: &'static str = "core.kn.patch";
    const MISS: &'static str = "core.kn.miss";
    const PATCH_SPAN: &'static str = "kn-delta";
    const BUILD_SPAN: Option<&'static str> = Some("kn-build");

    /// Adds the window's unified edges to the CSR in place, whatever
    /// the window's size.
    fn patch(&mut self, window: &[DbDelta]) {
        self.apply_window(window, &FusionWeights::default());
    }
}

/// The relationship-graph snapshot: the term dictionary of the `rel:*`
/// triple export of the database plus its [`GraphView`] CSR adjacency,
/// the two things an explanation reads, so repeated explanation queries
/// skip the export. A copy shares the dictionary until a patch interns
/// a new term.
#[derive(Clone)]
pub(crate) struct RelSnapshot {
    pub(crate) dict: Arc<TermDict>,
    pub(crate) view: GraphView,
}

impl RelSnapshot {
    /// Cold build over `db`: the `rel:*` export interned as a patch
    /// interns a window, then folded into its view.
    pub(crate) fn build(db: &HiveDb) -> Self {
        let mut snap = RelSnapshot { dict: Arc::default(), view: GraphView::default() };
        let upserts = snap.intern(rel_export(db));
        snap.view = GraphView::from_upserts(&snap.dict, &upserts);
        snap
    }

    /// `triples` as view upserts, in order. A triple whose terms are all
    /// interned reads their ids; one that names a new term copies the
    /// dictionary if a copy of the snapshot shares it, then interns
    /// subject, predicate and object in that order, as a store's insert
    /// does, so the ids equal those of a store given the export and then
    /// the same window triples ([`KnowledgeNetwork::to_store`]).
    fn intern(&mut self, triples: impl Iterator<Item = RelTriple>) -> Vec<StoredTriple> {
        triples
            .map(|(s, p, o, weight)| {
                let (s, p, o) = match (self.dict.get(&s), self.dict.get(&p), self.dict.get(&o)) {
                    (Some(s), Some(p), Some(o)) => (s, p, o),
                    _ => {
                        let dict = Arc::make_mut(&mut self.dict);
                        (dict.intern(s), dict.intern(p), dict.intern(o))
                    }
                };
                StoredTriple { s, p, o, weight }
            })
            .collect()
    }
}

impl Derived for RelSnapshot {
    const HIT: &'static str = "core.rel.hit";
    const DELTA: &'static str = "core.rel.delta";
    const PATCH: &'static str = "core.rel.patch";
    const MISS: &'static str = "core.rel.miss";
    const PATCH_SPAN: &'static str = "rel-delta";
    const BUILD_SPAN: Option<&'static str> = Some("rel-snapshot-build");

    /// Exactly the deltas with a [`rel_triple`], so a window of paper
    /// views re-stamps the snapshot instead of copying it. Exhaustive on
    /// purpose (lint R10).
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

    /// Interns the window's triples and upserts them into the view (a
    /// window past `REBUILD_FRACTION` of the view re-assembles it once).
    fn patch(&mut self, window: &[DbDelta]) {
        let upserts = self.intern(window.iter().filter_map(rel_triple));
        self.view.upsert(&self.dict, &upserts);
    }
}

impl Derived for PprCache {
    const HIT: &'static str = "core.ppr.hit";
    const DELTA: &'static str = "core.ppr.delta";
    const PATCH: &'static str = "core.ppr.patch";
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
    use crate::ids::UserId;
    use crate::model::{QaTarget, User};
    use crate::sim::{SimConfig, WorldBuilder};
    use hive_store::view::REBUILD_FRACTION;
    use hive_store::Term;

    /// `snap` equals a cold build over `db` and the store export that
    /// [`GraphView::build`] flattens, field for field: the same dictionary
    /// (every id names the same term) and the same view, nodes, offsets,
    /// row table and hops bit for bit. The store export is the reference
    /// a shared intern routine cannot be: the cold build and the patch
    /// both go through [`RelSnapshot::intern`].
    fn assert_equals_cold_build(snap: &RelSnapshot, db: &HiveDb, window: &str) {
        let store = KnowledgeNetwork::build(db).to_store(db);
        let view = GraphView::build(&store);
        let export = RelSnapshot { dict: Arc::new(store.dict().clone()), view };
        let references = [(RelSnapshot::build(db), "cold build"), (export, "store export")];
        for (reference, name) in references {
            assert_eq!(snap.dict.len(), reference.dict.len(), "{window}: {name}: dictionary size");
            for (id, term) in reference.dict.iter() {
                assert_eq!(snap.dict.resolve(id), Some(term), "{window}: {name}: {id:?}");
            }
            assert_eq!(snap.view.bitwise_diff(&reference.view), None, "{window}: {name}");
        }
    }

    /// A patched relationship snapshot equals a cold build whether its
    /// window interns a new term, names only known ones, or is past
    /// `REBUILD_FRACTION` of the view. The previous snapshot stays held,
    /// as a published epoch holds it, so every patch copies first.
    #[test]
    fn patched_rel_snapshot_equals_a_cold_build() {
        hive_obs::with_level(hive_obs::Level::Counts, || {
            let mut db = WorldBuilder::new(SimConfig::small()).build().db;
            let loners = [User::new("Lone", "Nowhere"), User::new("Alone", "Elsewhere")]
                .map(|u| db.add_user(u));
            let sessions = db.session_ids();
            let tier: Tier<RelSnapshot> = Tier::new();
            let get = |db: &HiveDb| tier.get(db, || RelSnapshot::build(db));
            let mut held = get(&db);
            assert_equals_cold_build(&held, &db, "cold");
            let term = |u: UserId| Term::iri(u.iri());
            for u in loners {
                assert!(held.dict.get(&term(u)).is_none(), "no `rel:*` triple names {u:?}");
            }
            let known: Vec<UserId> =
                db.user_ids().into_iter().filter(|&u| held.dict.get(&term(u)).is_some()).collect();
            assert!(known.len() > 10 && held.dict.get(&Term::iri("rel:checked_in")).is_some());

            // (a) Follows by the new users, the first naming two new terms,
            // whose ids follow the order subject, predicate, object: the
            // dictionary grows, so it is copied.
            db.follow(loners[0], loners[1]).unwrap();
            db.follow(loners[1], known[0]).unwrap();
            let next = get(&db);
            assert!(!Arc::ptr_eq(&held.dict, &next.dict), "a new term copies the dictionary");
            assert_eq!(next.dict.len(), held.dict.len() + 2);
            assert_equals_cold_build(&next, &db, "new term");
            held = next;

            // (b) Check-ins by known users: the copy shares the dictionary.
            for (i, &u) in known.iter().take(5).enumerate() {
                db.check_in(u, sessions[i % sessions.len()]).unwrap();
            }
            let next = get(&db);
            assert!(!Arc::ptr_eq(&held, &next), "the patch copied the held snapshot");
            assert!(Arc::ptr_eq(&held.dict, &next.dict), "known terms copy no dictionary");
            assert_equals_cold_build(&next, &db, "known terms");
            held = next;

            // (c) A window past REBUILD_FRACTION of the view, re-checking
            // users in: the view is re-assembled, not spliced op by op.
            let past = (held.view.edge_count() as f64 * REBUILD_FRACTION) as usize + 17;
            for i in 0..past {
                let session = sessions[(i / known.len()) % sessions.len()];
                db.check_in(known[i % known.len()], session).unwrap();
            }
            hive_obs::reset();
            let next = get(&db);
            let counts = hive_obs::snapshot();
            assert_eq!(counts.counter("store.view.rebuild_fallback"), 1, "re-assembled");
            assert_eq!(counts.counter("store.view.delta"), 0, "not spliced");
            assert!(Arc::ptr_eq(&held.dict, &next.dict));
            assert_equals_cold_build(&next, &db, "past the fraction");
            hive_obs::reset();
        });
    }

    /// `kn` equals a cold build over `db`: the same layout, covering
    /// every user, session, paper and conference, and the same CSR, raw
    /// weights included, bit for bit.
    fn assert_kn_equals_cold_build(kn: &KnowledgeNetwork, db: &HiveDb, window: &str) {
        let cold = KnowledgeNetwork::build(db);
        assert_eq!(kn.layout, cold.layout, "{window}: layout");
        let entities = db.user_ids().len()
            + db.session_ids().len()
            + db.paper_ids().len()
            + db.conference_ids().len();
        assert_eq!(kn.layout.node_count(), entities, "{window}: node count");
        assert_eq!(kn.csr.bitwise_diff(&cold.csr), None, "{window}");
        assert_eq!(kn.content, cold.content, "{window}: content");
    }

    /// A patched knowledge network equals a cold build after a window of
    /// every patchable delta, and after a bulk window of more than a
    /// quarter of its edges. The previous network stays held, as a
    /// published epoch holds it, so every patch copies first; the copy
    /// shares the content layer.
    #[test]
    fn patched_kn_equals_a_cold_build() {
        hive_obs::with_level(hive_obs::Level::Counts, || {
            let mut db = WorldBuilder::new(SimConfig::small()).build().db;
            // Two users with no edge yet, so windows also start rows.
            let loners = [User::new("Lone", "Nowhere"), User::new("Alone", "Elsewhere")]
                .map(|u| db.add_user(u));
            let (users, sessions) = (db.user_ids(), db.session_ids());
            let [u0, u1, u2, u3] = [0, 1, 2, 3].map(|i| users[i]);
            let [s0, s1] = [sessions[0], sessions[1]];
            let paper = db.paper_ids()[0];
            let conf = db.conference_ids()[0];
            let pres = db.presentation_ids()[0];
            let tier: Tier<KnowledgeNetwork> = Tier::new();
            let get = |db: &HiveDb| tier.get(db, || KnowledgeNetwork::build(db));
            let mut held = get(&db);
            assert_kn_equals_cold_build(&held, &db, "cold");
            type Window = Box<dyn Fn(&mut HiveDb) -> crate::error::Result<()>>;
            let windows: Vec<(&str, Window)> = vec![
                ("follow", Box::new(move |db| db.follow(loners[1], u0))),
                (
                    "connect",
                    Box::new(move |db| {
                        db.request_connection(loners[0], loners[1])?;
                        db.respond_connection(loners[1], loners[0], true)
                    }),
                ),
                ("check-in", Box::new(move |db| db.check_in(u1, s0))),
                ("attend", Box::new(move |db| db.attend(loners[0], conf))),
                (
                    "discuss a paper",
                    Box::new(move |db| {
                        db.ask_question(u2, QaTarget::Presentation(pres), "why?", false)
                            .map(drop)
                    }),
                ),
                (
                    "discuss a session",
                    Box::new(move |db| {
                        db.ask_question(loners[1], QaTarget::Session(s1), "how?", false)
                            .map(drop)
                    }),
                ),
                ("paper view", Box::new(move |db| db.view_paper(u3, paper))),
                (
                    "mixed",
                    Box::new(move |db| {
                        db.view_paper(loners[0], paper)?;
                        db.check_in(u1, s0)?;
                        db.follow(u0, loners[0])
                    }),
                ),
            ];
            for (name, write) in &windows {
                write(&mut db).unwrap();
                hive_obs::reset();
                let next = get(&db);
                let counts = hive_obs::snapshot();
                assert_eq!(counts.counter("core.kn.patch"), 1, "{name}: patched");
                assert!(!Arc::ptr_eq(&held, &next), "{name}: the patch copied the held network");
                assert!(Arc::ptr_eq(&held.corpus, &next.corpus), "{name}: shares the corpus");
                assert!(Arc::ptr_eq(&held.content, &next.content), "{name}: shares the content");
                assert_kn_equals_cold_build(&next, &db, name);
                held = next;
            }

            // A bulk window of more than a quarter of the edges, many of
            // them new: still one patch, not a rebuild.
            let bulk = held.csr.edge_count() / 4 + 1;
            for i in 0..bulk {
                db.check_in(users[i % users.len()], sessions[i % sessions.len()]).unwrap();
            }
            hive_obs::reset();
            let next = get(&db);
            let counts = hive_obs::snapshot();
            assert_eq!(counts.counter("core.kn.patch"), 1, "bulk: patched");
            assert_eq!(counts.counter("core.kn.miss"), 0, "bulk: not rebuilt");
            assert!(next.csr.edge_count() > held.csr.edge_count(), "bulk: new edges");
            assert!(Arc::ptr_eq(&held.content, &next.content));
            assert_kn_equals_cold_build(&next, &db, "bulk");
            hive_obs::reset();
        });
    }

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
            assert_eq!(RelSnapshot::affected_by(&d), rel_triple(&d).is_some(), "{d:?}");
        }
    }
}
