//! Epoch-snapshot serving: one writer, many readers over published
//! epochs.
//!
//! The facade ([`Hive`]) answers every Table-1 read from its database,
//! whose indexes are current at every write, and its three
//! generation-stamped derived tiers (`tier.rs`). This
//! module splits the platform into the two roles the paper's
//! read-dominated service mix actually has:
//!
//! * **One writer** owns the [`Hive`] inside a [`HiveServer`] and
//!   applies typed mutators through [`HiveServer::writer`]. Rust's
//!   `&mut` receiver *is* the single-writer discipline — there is no
//!   writer lock because there cannot be a second writer.
//! * **Many readers** hold cloned [`ReadHandle`]s and call
//!   [`ReadHandle::epoch`] to get an [`Arc<Epoch>`]: a pinned copy of
//!   the facade at one generation. [`Epoch`] derefs to [`Hive`], so
//!   every Table-1 read is the facade's own method, written once. The
//!   epoch's database never moves, so a read probes the epoch's own
//!   tier slots and always hits: each slot is a `Mutex` held for one
//!   stamp compare and one `Arc` clone, never shared with the writer
//!   and never held across a build.
//!
//! [`HiveServer::publish`] brings the facade's three tiers to the
//! current generation and pins a copy of the facade: a database clone
//! that shares the writer's arena chunks and copies its indexes, log
//! and delta journal, and each tier slot holding the writer's stamp
//! and `Arc`. The writer's first write into a chunk after a publish
//! copies that chunk (`db/chunk.rs`), so the epoch keeps its rows. A
//! tier the journaled [`crate::db::DbDelta`] window leaves unchanged
//! hands the retiring epoch's `Arc` on under the new stamp; one the
//! window changes is patched under `Arc::make_mut`, which copies
//! because the retiring epoch still pins the old value, so that epoch
//! keeps answering out of its own frozen structures.
//! The one value an epoch shares mutably is the PPR memo: PPR-backed
//! reads fill the memo the epoch shares with the writer's tier, and
//! since each entry is an exact solve, a fill never changes an answer.
//!
//! The sim-harness snapshot-consistency oracle checks that any epoch
//! read is bit-identical to a serial replay at that epoch's generation.

use crate::api::Hive;
use crate::db::{DbDelta, HiveDb};
use crate::error::Result;
use crate::tier::unpoison;
use std::ops::Deref;
use std::sync::{Arc, RwLock};

// ---- the epoch ------------------------------------------------------------

/// A pinned copy of the facade at one database generation: the database
/// snapshot plus the three tier slots it was published with. Derefs to
/// [`Hive`], so every Table-1 read service is available with the
/// facade's own body and observability; nothing can mutate an epoch, so
/// its answers never change.
pub struct Epoch {
    seq: u64,
    hive: Hive,
}

impl Deref for Epoch {
    type Target = Hive;

    fn deref(&self) -> &Hive {
        &self.hive
    }
}

impl Epoch {
    /// Cold-builds an epoch from a database snapshot: the indexes are
    /// replayed from the arenas and the log, and every tier is built
    /// from scratch on first use, with no delta patching. This is the
    /// serving-layer analogue of the oracle's "cold platform" — the
    /// reference answer a published epoch must match bit-for-bit.
    pub fn rebuild(db: Arc<HiveDb>) -> Epoch {
        let mut db = Arc::unwrap_or_clone(db);
        db.replay_indexes();
        Epoch { seq: 0, hive: Hive::new(db) }
    }

    /// The database generation this epoch freezes.
    pub fn generation(&self) -> u64 {
        self.hive.db().generation()
    }

    /// Publish sequence number (0 for the boot epoch, +1 per publish).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

// ---- the server -----------------------------------------------------------

/// The publish slot readers clone epochs out of. An `RwLock` rather
/// than a `Mutex` because the hold times are asymmetric and tiny: a
/// read holds it for one `Arc` clone, a publish for one pointer swap —
/// neither ever covers a build (the serving-layer analogue of the
/// facade's lock-scope discipline, lint R11).
struct Slot {
    current: RwLock<Arc<Epoch>>,
}

impl Slot {
    fn get(&self) -> Arc<Epoch> {
        Arc::clone(&*unpoison(self.current.read()))
    }

    fn set(&self, next: Arc<Epoch>) {
        *unpoison(self.current.write()) = next;
    }
}

/// A cloneable read path into the serving layer. Handing a
/// `ReadHandle` to a reader task gives it [`ReadHandle::epoch`] and
/// nothing else — readers structurally cannot mutate or block the
/// writer.
#[derive(Clone)]
pub struct ReadHandle {
    slot: Arc<Slot>,
}

impl ReadHandle {
    /// The most recently published epoch: one `Arc` clone under a read
    /// guard of the publish slot. Reads on the returned epoch probe
    /// only its own tier slots (and fill the PPR memo it shares with
    /// the writer).
    pub fn epoch(&self) -> Arc<Epoch> {
        hive_obs::count("serve.read.calls", 1);
        self.slot.get()
    }

    /// The generation of the most recently published epoch — lets a
    /// long-lived reader measure how far behind its pinned epoch is.
    pub fn current_generation(&self) -> u64 {
        self.slot.get().generation()
    }
}

/// Single-writer serving wrapper around a [`Hive`].
///
/// The server owns the facade; mutators go through
/// [`HiveServer::writer`] (the full typed mutation surface of
/// [`Hive`]) and become visible to readers only at the next
/// [`HiveServer::publish`]. Readers come from [`HiveServer::reader`]
/// and never wait on the writer — see the module docs for the full
/// contract.
pub struct HiveServer {
    hive: Hive,
    slot: Arc<Slot>,
}

impl HiveServer {
    /// Boots a server over a (possibly pre-populated) database and
    /// publishes the boot epoch (seq 0) so readers never observe an
    /// empty slot.
    pub fn new(db: HiveDb) -> HiveServer {
        let hive = Hive::new(db);
        let boot = Arc::new(Self::snapshot_epoch(&hive, 0));
        HiveServer { hive, slot: Arc::new(Slot { current: RwLock::new(boot) }) }
    }

    /// Pins the facade's current generation as an epoch: the three tiers
    /// are brought to it (re-stamped, patched or rebuilt there), then
    /// the database is cloned and each tier slot's stamp and `Arc`
    /// pinned, so every read on the epoch is a tier hit.
    fn snapshot_epoch(hive: &Hive, seq: u64) -> Epoch {
        hive.knowledge();
        hive.relationship_graph();
        hive.ppr();
        Epoch { seq, hive: hive.pinned() }
    }

    /// The typed mutation surface. `&mut self` is the single-writer
    /// guarantee: only one caller can ever be applying mutations, and
    /// readers never see them until [`HiveServer::publish`].
    pub fn writer(&mut self) -> &mut Hive {
        &mut self.hive
    }

    /// Read access to the owned facade (the writer's own live view —
    /// *not* snapshot-isolated; readers want [`HiveServer::reader`]).
    pub fn hive(&self) -> &Hive {
        &self.hive
    }

    /// A new read handle (cheap; clone freely per reader).
    pub fn reader(&self) -> ReadHandle {
        ReadHandle { slot: Arc::clone(&self.slot) }
    }

    /// The most recently published epoch.
    pub fn current(&self) -> Arc<Epoch> {
        self.slot.get()
    }

    /// Makes everything the writer has applied since the last publish
    /// visible to readers as one new immutable epoch. A no-op (and
    /// `serve.epoch.noop`) when the generation has not moved; otherwise
    /// counts whether the derived structures could patch forward
    /// through the delta log (`serve.epoch.patch`) or had to rebuild
    /// (`serve.epoch.rebuild`), under an `epoch-publish` span.
    pub fn publish(&mut self) -> Arc<Epoch> {
        let generation = self.hive.db().generation();
        let prev = self.current();
        if prev.generation() == generation {
            hive_obs::count("serve.epoch.noop", 1);
            return prev;
        }
        let span = hive_obs::span_enter("epoch-publish", self.hive.db().now().ticks());
        let window = self.hive.db().deltas_since(prev.generation());
        if window.is_some_and(|w| !w.iter().any(DbDelta::is_structural)) {
            hive_obs::count("serve.epoch.patch", 1);
        } else {
            hive_obs::count("serve.epoch.rebuild", 1);
        }
        let next = Arc::new(Self::snapshot_epoch(&self.hive, prev.seq + 1));
        self.slot.set(Arc::clone(&next));
        hive_obs::span_exit(span, self.hive.db().now().ticks());
        hive_obs::count("serve.epoch.publish", 1);
        hive_obs::gauge_max("serve.epoch.generation", generation);
        hive_obs::gauge_max("serve.epoch.gen_stride", generation - prev.generation());
        next
    }

    // ---- replication hooks --------------------------------------------------

    /// The writer's current mutation generation (what the next publish
    /// would stamp). Replication leaders frame log entries between
    /// consecutive values of this counter.
    pub fn generation(&self) -> u64 {
        self.hive.db().generation()
    }

    /// Exports a replication checkpoint of the writer's current state:
    /// the full snapshot stamped with its generation, for follower
    /// bootstrap and gap/truncation recovery.
    pub fn checkpoint(&self) -> crate::persist::ReplicaCheckpoint {
        self.hive.db().checkpoint()
    }

    /// Boots a server from a replication checkpoint: the restored
    /// database adopts the checkpoint's generation and the boot epoch
    /// is published from it, so a follower's first served epoch is the
    /// leader state the checkpoint captured.
    pub fn from_checkpoint(cp: &crate::persist::ReplicaCheckpoint) -> Result<HiveServer> {
        Ok(HiveServer::new(HiveDb::from_checkpoint(cp)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discover::DiscoverConfig;
    use crate::ids::UserId;
    use crate::model::{Paper, Presentation, QaTarget, Session, User, WorkpadItem};
    use crate::peers::PeerRecConfig;
    use crate::sim::{SimConfig, WorldBuilder};

    fn server() -> HiveServer {
        HiveServer::new(WorldBuilder::new(SimConfig::small()).build().db)
    }

    #[test]
    fn boot_epoch_matches_facade_bit_for_bit() {
        let s = server();
        let epoch = s.current();
        let h = s.hive();
        let u = h.db().user_ids()[0];
        let q = "tensor stream sketch";
        let facade: Vec<(String, u64)> = h
            .search(u, q, DiscoverConfig::default())
            .into_iter()
            .map(|x| (x.title, x.score.to_bits()))
            .collect();
        let served: Vec<(String, u64)> = epoch
            .search(u, q, DiscoverConfig::default())
            .into_iter()
            .map(|x| (x.title, x.score.to_bits()))
            .collect();
        assert_eq!(facade, served);
        let fp: Vec<(UserId, u64)> =
            h.similar_peers(u, 5).into_iter().map(|(v, s)| (v, s.to_bits())).collect();
        let ep: Vec<(UserId, u64)> =
            epoch.similar_peers(u, 5).into_iter().map(|(v, s)| (v, s.to_bits())).collect();
        assert_eq!(fp, ep);
    }

    #[test]
    fn old_epoch_is_frozen_while_the_writer_moves_on() {
        let mut s = server();
        let users = s.hive().db().user_ids();
        let old = s.current();
        let old_follows = old.db().activity_log().len();
        s.writer().follow(users[0], users[7]).ok();
        s.writer().follow(users[1], users[8]).ok();
        let fresh = s.publish();
        assert!(fresh.generation() > old.generation(), "publish advances the generation");
        assert_eq!(fresh.seq(), old.seq() + 1);
        assert_eq!(
            old.db().activity_log().len(),
            old_follows,
            "retired epoch must not observe later writes"
        );
        // The retired epoch still answers (out of its own frozen kn).
        let _ = old.similar_peers(users[0], 3);
    }

    #[test]
    fn publish_without_mutation_is_a_noop() {
        let mut s = server();
        let e1 = s.publish();
        let e2 = s.publish();
        assert!(Arc::ptr_eq(&e1, &e2), "same generation republishes the same epoch");
    }

    #[test]
    fn published_epoch_matches_cold_rebuild() {
        hive_obs::with_level(hive_obs::Level::Counts, || {
            let mut s = server();
            let users = s.hive().db().user_ids();
            let session = s.hive().db().session_ids()[0];
            let u = users[2];
            // Answers that read every tier: kn (similar peers), rel
            // (explanation), and ppr (search, peer recommendation).
            let answers = |e: &Epoch| -> Vec<(String, u64)> {
                let peers = e.similar_peers(u, 5).into_iter().map(|(v, x)| (format!("{v:?}"), x));
                let explained = ("explain".to_string(), e.explain_relationship(u, users[3]).combined);
                let hits = e.search(u, "tensor stream", DiscoverConfig::default());
                let recs = e.recommend_peers(u, PeerRecConfig::default());
                peers
                    .chain([explained])
                    .chain(hits.iter().map(|h| (format!("{:?}", h.resource), h.score)))
                    .chain(recs.iter().map(|p| (format!("{:?}", p.user), p.score)))
                    .map(|(key, x)| (key, x.to_bits()))
                    .collect()
            };
            let cold = |e: &Epoch| Epoch::rebuild(Arc::new(e.db().clone()));
            // Every tier's patch and build counters, plus the kn hits.
            let probes = || {
                let snap = hive_obs::snapshot();
                let moved: Vec<u64> = ["kn", "rel", "ppr"]
                    .iter()
                    .flat_map(|t| ["delta", "miss"].map(|c| snap.counter(&format!("core.{t}.{c}"))))
                    .collect();
                (moved, snap.counter("core.kn.hit"))
            };
            s.writer().follow(users[2], users[3]).ok();
            s.writer().check_in(users[2], session).ok();
            let epoch = s.publish();
            let (moved, hits) = probes();
            let served = answers(&epoch);
            let (moved_after, hits_after) = probes();
            assert_eq!(moved_after, moved, "a published epoch neither patches nor builds a tier");
            assert!(hits_after > hits, "its reads hit the pinned tiers");
            assert_eq!(served, answers(&cold(&epoch)), "patched-forward epoch must equal cold rebuild");
            // A neutral-only window: the tiers move on by re-stamping.
            s.writer().comment(u, QaTarget::Session(session), "a neutral write").unwrap();
            s.writer().post_tweet(Some(u), "@neutral", "a neutral tweet", session).unwrap();
            let restamped = s.publish();
            assert!(restamped.generation() > epoch.generation());
            assert!(
                Arc::ptr_eq(&restamped.knowledge(), &epoch.knowledge()),
                "kn is re-stamped, not copied"
            );
            assert_eq!(
                answers(&restamped),
                answers(&cold(&restamped)),
                "re-stamped epoch must equal cold rebuild"
            );
            // A window of paper views patches kn but writes no `rel:*`
            // triple, so the relationship snapshot is re-stamped.
            let paper = s.hive().db().paper_ids()[0];
            let patches = || {
                let snap = hive_obs::snapshot();
                (snap.counter("core.kn.patch"), snap.counter("core.rel.patch"))
            };
            let (kn_patches, rel_patches) = patches();
            s.writer().view_paper(u, paper).unwrap();
            let viewed = s.publish();
            assert_eq!(patches(), (kn_patches + 1, rel_patches), "only kn counts a patch");
            assert!(!Arc::ptr_eq(&viewed.knowledge(), &restamped.knowledge()), "kn is patched");
            let rel = |e: &Epoch| e.relationship_graph();
            assert!(Arc::ptr_eq(&rel(&viewed), &rel(&restamped)), "rel is re-stamped, not copied");
            assert_eq!(answers(&viewed), answers(&cold(&viewed)), "and equals a cold rebuild");
        });
    }

    /// An edit that rewrites a row in place.
    type Edit = Box<dyn Fn(&mut Hive) -> Result<()>>;

    #[test]
    fn in_place_writes_leave_the_published_rows_alone() {
        let mut s = server();
        let w = s.writer();
        let [a, b, c, d] = ["Ada", "Bo", "Cy", "Di"].map(|n| w.add_user(User::new(n, "Genoa")));
        w.request_connection(a, b).unwrap();
        w.request_connection(a, c).unwrap();
        w.request_connection(a, d).unwrap();
        w.respond_connection(d, a, false).unwrap();
        let pres = w.db().presentation_ids()[0];
        let presenter = w.db().get_presentation(pres).unwrap().presenter;
        let pad = w.create_workpad(a, "pad").unwrap();
        w.workpad_add(a, pad, WorkpadItem::UserAvatar(b)).unwrap();
        let edits: Vec<(&str, Edit)> = vec![
            ("accept", Box::new(move |h| h.respond_connection(b, a, true))),
            ("decline", Box::new(move |h| h.respond_connection(c, a, false))),
            ("retry a declined request", Box::new(move |h| h.request_connection(a, d))),
            ("revise slides", Box::new(move |h| h.revise_slides(presenter, pres, "v2"))),
            ("workpad add", Box::new(move |h| h.workpad_add(a, pad, WorkpadItem::UserAvatar(c)))),
            ("workpad note", Box::new(move |h| h.workpad_note(a, pad, "note").map(|_| ()))),
            (
                "workpad remove",
                Box::new(move |h| h.workpad_remove(a, pad, &WorkpadItem::UserAvatar(b))),
            ),
        ];
        // The arenas these edits rewrite, and their sizes.
        let rows = |db: &HiveDb| {
            let snap = db.snapshot();
            let sizes = (snap.connections.len(), snap.presentations.len(), snap.workpads.len());
            (sizes, format!("{:?}", (snap.connections, snap.presentations, snap.workpads)))
        };
        for (name, edit) in edits {
            let epoch = s.publish();
            let frozen = epoch.db().to_json().unwrap();
            let before = rows(s.hive().db());
            let copied = hive_obs::with_level(hive_obs::Level::Counts, || {
                hive_obs::reset();
                edit(s.writer()).unwrap();
                hive_obs::snapshot().counter("core.db.cow_rows")
            });
            let after = rows(s.hive().db());
            assert_eq!(after.0, before.0, "{name}: the edit is in place");
            assert_ne!(after.1, before.1, "{name}: the writer's row changed");
            assert!(copied > 0, "{name}: the edit copied the chunk it shares with the epoch");
            assert_eq!(epoch.db().to_json().unwrap(), frozen, "{name}: the epoch kept its rows");
        }
    }

    /// A publish shares the index's posting lists with the writer, so
    /// one write of every hooked kind afterwards must leave the epoch's
    /// index as it was. Snapshots hold no index, so the epoch is compared
    /// with a replay of its own snapshot taken at publish.
    #[test]
    fn hooked_writes_leave_the_published_index_alone() {
        let mut s = server();
        let epoch = s.publish();
        let at_publish = HiveDb::from_snapshot(&epoch.db().snapshot()).unwrap();
        let digest = epoch.db().indexes().digest();
        assert!(epoch.db().indexes() == at_publish.indexes());
        let db = s.hive().db();
        let (u, v) = (db.user_ids()[0], db.user_ids()[1]);
        let (conf, session, paper) = (db.conference_ids()[0], db.session_ids()[0], db.paper_ids()[0]);
        let pres = db.presentation_ids()[0];
        let presenter = db.get_paper(paper).unwrap().authors[0];
        let w = s.writer();
        // A newcomer's follow and connection request cannot be refused,
        // and the newcomer's key lies past the end of every user table.
        let newcomer = w.add_user(User::new("Newcomer", "Genoa"));
        let late = w.db_mut().add_session(Session::new(conf, "Late-breaking results", "demo")).unwrap();
        let mut late_paper = Paper::new("A late paper", vec![u]);
        late_paper.venue = Some(conf);
        w.add_paper(late_paper).unwrap();
        w.add_presentation(Presentation::new(paper, presenter, late)).unwrap();
        let q = w.ask_question(u, QaTarget::Presentation(pres), "why?", true).unwrap();
        w.ask_question(v, QaTarget::Session(session), "how?", false).unwrap();
        w.answer_question(v, q, "because").unwrap();
        w.comment(u, QaTarget::Presentation(pres), "nice").unwrap();
        w.comment(v, QaTarget::Session(session), "agreed").unwrap();
        w.create_workpad(u, "pad").unwrap();
        w.post_tweet(Some(v), "@v", "live from the session", session).unwrap();
        w.check_in(u, session).unwrap();
        w.follow(newcomer, u).unwrap();
        w.request_connection(newcomer, v).unwrap();
        assert!(epoch.db().indexes() == at_publish.indexes(), "the epoch's index changed");
        assert_eq!(epoch.db().indexes().digest(), digest);
        assert_ne!(s.hive().db().indexes().digest(), digest, "the writer's index moved");
    }

    /// What one check-in after a publish copies out of what the epoch
    /// shares: the tail chunk of the check-in arena (`core.db.cow_rows`),
    /// and, in each of the three posting tables the check-in appends to,
    /// the key's chunk of list pointers and its list
    /// (`core.db.cow_postings`). The small world's tables hold 30 user
    /// slots and 12 session slots, one chunk each.
    #[test]
    fn a_check_in_after_a_publish_copies_one_chunk_and_list_per_table() {
        let mut s = server();
        let epoch = s.publish();
        let db = epoch.db();
        let (u, session) = (db.user_ids()[3], db.session_ids()[2]);
        let tail = db.snapshot().checkins.len() % 64;
        let lists = db.activities_of(u).len() + db.checkins_of(u).len() + db.checkins_in(session).len();
        let counts = hive_obs::with_level(hive_obs::Level::Counts, || {
            hive_obs::reset();
            s.writer().check_in(u, session).unwrap();
            let snap = hive_obs::snapshot();
            (snap.counter("core.db.cow_rows"), snap.counter("core.db.cow_postings"))
        });
        assert_eq!(counts, (tail as u64, (30 + 30 + 12 + lists) as u64));
        assert_eq!(counts, (56, 103), "pinned on the small world");
    }

    #[test]
    fn read_handles_survive_the_server_and_count_reads() {
        hive_obs::with_level(hive_obs::Level::Counts, || {
            hive_obs::reset();
            let s = server();
            let r1 = s.reader();
            let r2 = r1.clone();
            assert_eq!(r1.epoch().generation(), r2.epoch().generation());
            assert_eq!(r1.current_generation(), s.current().generation());
            let snap = hive_obs::snapshot();
            assert_eq!(snap.counter("serve.read.calls"), 2);
            hive_obs::reset();
        });
    }
}
