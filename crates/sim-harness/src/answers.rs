//! One vocabulary for the bit-exact oracles: every served answer is
//! digested the same way wherever an oracle compares it.
//!
//! [`Digest`] is a 64-bit FNV-1a stream. A string enters as its length
//! then its bytes, a float as its [`f64::to_bits`], and a sequence as
//! its length then its elements, so two answers digest equal only when
//! every field a user sees agrees bit for bit ("close enough" never
//! passes), and `["ab", "c"]` digests apart from `["a", "bc"]`.
//! [`Answer`] is implemented once per served type; map-shaped answers
//! are sorted first, because equal content must not depend on hash
//! iteration order. A [`Fingerprint`] is an ordered battery of labeled
//! digests that the soaks and the tests compare.

use hive_core::clock::Timestamp;
use hive_core::discover::SearchHit;
use hive_core::evidence::{EvidenceItem, RelationshipExplanation};
use hive_core::feed::{FeedDigest, Update};
use hive_core::history::HistoryHit;
use hive_core::ids::{SessionId, UserId};
use hive_core::peers::PeerRecommendation;
use hive_core::HiveDb;
use hive_json::ToJson;
use std::collections::HashMap;

/// A 64-bit FNV-1a hash over a stream of answers.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The digest of one answer.
    pub fn of<A: Answer + ?Sized>(answer: &A) -> u64 {
        Digest::default().push(answer).finish()
    }

    /// Feeds one more answer, or one field of an answer, into the stream.
    pub fn push<A: Answer + ?Sized>(&mut self, answer: &A) -> &mut Self {
        answer.digest(self);
        self
    }

    /// The hash of everything pushed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A served answer (or a part of one) that an oracle compares.
pub trait Answer {
    /// Feeds every field a user sees into `d`.
    fn digest(&self, d: &mut Digest);
}

impl Answer for u64 {
    fn digest(&self, d: &mut Digest) {
        d.bytes(&self.to_le_bytes());
    }
}

/// Counts and lengths enter as a `u64`.
impl Answer for usize {
    fn digest(&self, d: &mut Digest) {
        d.push(&(*self as u64));
    }
}

impl Answer for f64 {
    fn digest(&self, d: &mut Digest) {
        d.push(&self.to_bits());
    }
}

impl Answer for str {
    fn digest(&self, d: &mut Digest) {
        d.push(&self.len());
        d.bytes(self.as_bytes());
    }
}

impl Answer for String {
    fn digest(&self, d: &mut Digest) {
        d.push(self.as_str());
    }
}

impl<T: Answer + ?Sized> Answer for &T {
    fn digest(&self, d: &mut Digest) {
        (**self).digest(d);
    }
}

impl<T: Answer> Answer for [T] {
    fn digest(&self, d: &mut Digest) {
        d.push(&self.len());
        for x in self {
            d.push(x);
        }
    }
}

impl<T: Answer> Answer for Vec<T> {
    fn digest(&self, d: &mut Digest) {
        d.push(self.as_slice());
    }
}

impl<A: Answer, B: Answer> Answer for (A, B) {
    fn digest(&self, d: &mut Digest) {
        d.push(&self.0).push(&self.1);
    }
}

impl Answer for Timestamp {
    fn digest(&self, d: &mut Digest) {
        d.push(&self.0);
    }
}

impl Answer for UserId {
    fn digest(&self, d: &mut Digest) {
        d.push(self.iri().as_str());
    }
}

impl Answer for SessionId {
    fn digest(&self, d: &mut Digest) {
        d.push(self.iri().as_str());
    }
}

/// Per-category counts (a feed digest's, a timeline bucket's), sorted by
/// category.
impl Answer for HashMap<&'static str, usize> {
    fn digest(&self, d: &mut Digest) {
        // lint:allow(determinism-taint) -- the entries are sorted below
        let mut counts: Vec<(&str, usize)> = self.iter().map(|(&k, &v)| (k, v)).collect();
        counts.sort_unstable();
        d.push(&counts);
    }
}

/// A missing preview enters as `"\0"`.
impl Answer for SearchHit {
    fn digest(&self, d: &mut Digest) {
        d.push(self.resource.iri().as_str()).push(&self.score).push(&self.title);
        d.push(self.preview.as_deref().unwrap_or("\u{0}")).push(&self.key_concepts);
    }
}

impl Answer for EvidenceItem {
    fn digest(&self, d: &mut Digest) {
        d.push(self.kind.label()).push(&self.score).push(&self.explanation);
    }
}

impl Answer for PeerRecommendation {
    fn digest(&self, d: &mut Digest) {
        d.push(&self.user).push(&self.score).push(&self.reasons).push(&self.likely_sessions);
    }
}

/// The evidence, its combination and the paths; the two users are the
/// request, not the answer.
impl Answer for RelationshipExplanation {
    fn digest(&self, d: &mut Digest) {
        d.push(&self.items).push(&self.combined).push(&self.paths);
    }
}

impl Answer for Update {
    fn digest(&self, d: &mut Digest) {
        d.push(&self.actor).push(&self.at).push(self.category).push(&self.text);
    }
}

impl Answer for FeedDigest {
    fn digest(&self, d: &mut Digest) {
        d.push(&self.updates).push(&self.counts);
    }
}

/// The matched record enters as its snapshot JSON.
impl Answer for HistoryHit {
    fn digest(&self, d: &mut Digest) {
        d.push(&self.record.to_json().render()).push(&self.relevance).push(&self.text);
    }
}

/// An ordered battery of labeled answer digests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// `(label, digest)` pairs in battery order.
    pub entries: Vec<(String, u64)>,
}

impl Fingerprint {
    /// Appends the digest of one read's answer under `label`, which
    /// names the read and the users it was asked for.
    pub fn push<A: Answer + ?Sized>(&mut self, label: impl Into<String>, answer: &A) {
        self.entries.push((label.into(), Digest::of(answer)));
    }

    /// The reads whose answers differ between two fingerprints (empty =
    /// equivalent). The run's seed reproduces the answers themselves.
    pub fn diff(&self, other: &Fingerprint) -> Vec<String> {
        let mut out = Vec::new();
        if self.entries.len() != other.entries.len() {
            out.push(format!(
                "battery size mismatch: {} vs {} entries",
                self.entries.len(),
                other.entries.len()
            ));
        }
        for ((la, va), (lb, vb)) in self.entries.iter().zip(&other.entries) {
            if la != lb {
                out.push(format!("battery order diverged: `{la}` vs `{lb}`"));
            } else if va != vb {
                out.push(format!("`{la}` diverged: digest {va:016x} != {vb:016x}"));
            }
        }
        out
    }
}

/// The probe users every battery asks about: the first, middle and last
/// user. Fixed, not sampled, so two instances answer the same questions.
pub fn probe_users(db: &HiveDb) -> Vec<UserId> {
    let users = db.user_ids();
    let mut probe = Vec::new();
    for idx in [0, users.len() / 2, users.len().saturating_sub(1)] {
        if let Some(&u) = users.get(idx) {
            if !probe.contains(&u) {
                probe.push(u);
            }
        }
    }
    probe
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_core::discover::{DiscoverConfig, Resource};
    use hive_core::evidence::EvidenceKind;
    use hive_core::ids::PaperId;
    use hive_core::model::{ActivityEvent, ActivityRecord};
    use hive_core::peers::PeerRecConfig;
    use hive_core::sim::{SimConfig, WorldBuilder};
    use hive_core::Hive;

    /// The served bits of the four context-ranked reads and of content
    /// similarity, pinned on the small world: every user's search
    /// (default config and a wide one with many key concepts), resource
    /// and peer recommendation, an explanation against the next user, and
    /// similar peers. One digest per read.
    #[test]
    fn served_read_bits_are_pinned() {
        // Recorded against the read path before the score-then-render
        // rewrite (similar_peers before it summed the user's norm once);
        // every change since must keep them.
        const GOLDEN: [u64; 6] = [
            0xa685_2866_8e03_d471, // search, default config
            0x2f23_e546_e036_bc89, // search, top 40 with 20 concepts per hit
            0x553c_e125_8ee7_0c4d, // recommend_resources
            0x6d1c_7591_3e88_c2a5, // recommend_peers
            0xe1b1_710b_c076_0601, // explain_relationship
            0x6c5c_3741_bc2e_91e2, // similar_peers
        ];
        let h = Hive::new(WorldBuilder::new(SimConfig::small()).build().db);
        let users = h.db().user_ids();
        let mut rng = hive_rng::Rng::seed_from_u64(7);
        let wide = DiscoverConfig::defaults().with_top_k(40).with_concepts_per_hit(20);
        let mut hashes = [Digest::default(); 6];
        let mut kinds = std::collections::BTreeSet::new();
        let (mut previews, mut concepts, mut paths, mut similar) = (0, 0, 0, 0);
        for (i, &u) in users.iter().enumerate() {
            let query = hive_core::sim::topic_phrase(i % hive_core::sim::topic_count(), &mut rng);
            hashes[0].push(&h.search(u, &query, DiscoverConfig::default()));
            let hits = h.search(u, &query, wide);
            previews += hits.iter().filter(|x| x.preview.is_some()).count();
            concepts += hits.iter().map(|x| x.key_concepts.len()).sum::<usize>();
            hashes[1].push(&hits);
            hashes[2].push(&h.recommend_resources(u, DiscoverConfig::default()));
            let recs = h.recommend_peers(u, PeerRecConfig::default());
            kinds.extend(recs.iter().flat_map(|rec| rec.reasons.iter().map(|r| r.kind)));
            hashes[3].push(&recs);
            let exp = h.explain_relationship(u, users[(i + 1) % users.len()]);
            kinds.extend(exp.items.iter().map(|r| r.kind));
            paths += exp.paths.len();
            hashes[4].push(&exp);
            let peers = h.similar_peers(u, 10);
            similar += peers.len();
            hashes[5].push(&peers);
        }
        assert_eq!(kinds.len(), 12, "every evidence kind is covered: {kinds:?}");
        assert!(
            previews > 0 && concepts > 0 && paths > 0 && similar > 0,
            "{previews} {concepts} {paths} {similar}"
        );
        assert_eq!(hashes.map(|d| d.finish()), GOLDEN, "served read bits moved");
    }

    fn last_char(s: &mut String) {
        if let Some(c) = s.pop() {
            s.push(if c == 'x' { 'y' } else { 'x' });
        }
    }

    /// A named edit of one field.
    type Edit<A> = (&'static str, fn(&mut A));

    /// Asserts that each edit of `base` moves its digest.
    fn each_edit_moves<A: Answer + Clone>(base: &A, edits: &[Edit<A>]) {
        for (field, edit) in edits {
            let mut changed = base.clone();
            edit(&mut changed);
            assert_ne!(Digest::of(base), Digest::of(&changed), "{field} left the digest");
        }
    }

    #[test]
    fn every_field_moves_the_digest() {
        let hit = SearchHit {
            resource: Resource::Paper(PaperId(3)),
            score: 0.5,
            title: "Tensor streams".to_string(),
            preview: Some("a sketch of tensor streams".to_string()),
            key_concepts: vec!["tensor".to_string()],
        };
        each_edit_moves(
            &hit,
            &[
                ("resource", |h| h.resource = Resource::Paper(PaperId(4))),
                ("score", |h| h.score = h.score.next_up()),
                ("title", |h| last_char(&mut h.title)),
                ("preview text", |h| h.preview.iter_mut().for_each(last_char)),
                ("preview presence", |h| h.preview = None),
                ("key concepts", |h| h.key_concepts.push("stream".to_string())),
            ],
        );
        let item = EvidenceItem {
            kind: EvidenceKind::CoAuthorship,
            score: 0.25,
            explanation: "co-authored 2 papers".to_string(),
        };
        each_edit_moves(
            &item,
            &[
                ("kind", |e| e.kind = EvidenceKind::Following),
                ("score", |e| e.score = e.score.next_up()),
                ("explanation", |e| last_char(&mut e.explanation)),
            ],
        );
        let rec = PeerRecommendation {
            user: UserId(1),
            score: 0.75,
            reasons: vec![item.clone()],
            likely_sessions: vec![(SessionId(2), 0.125)],
        };
        each_edit_moves(
            &rec,
            &[
                ("user", |r| r.user = UserId(9)),
                ("score", |r| r.score = r.score.next_up()),
                ("reason text", |r| {
                    r.reasons.iter_mut().for_each(|e| last_char(&mut e.explanation))
                }),
                ("session", |r| r.likely_sessions[0].0 = SessionId(3)),
                ("session score", |r| r.likely_sessions[0].1 = r.likely_sessions[0].1.next_up()),
            ],
        );
        let exp = RelationshipExplanation {
            a: UserId(1),
            b: UserId(2),
            items: vec![item],
            combined: 0.25,
            paths: vec!["user:1 -> paper:3 -> user:2".to_string()],
        };
        each_edit_moves(
            &exp,
            &[
                ("item text", |x| x.items.iter_mut().for_each(|e| last_char(&mut e.explanation))),
                ("combined", |x| x.combined = x.combined.next_up()),
                ("path", |x| x.paths.iter_mut().for_each(last_char)),
                ("path count", |x| x.paths.push(String::new())),
            ],
        );
        each_edit_moves(
            &(UserId(1), 0.5),
            &[("user", |p| p.0 = UserId(2)), ("score", |p| p.1 = p.1.next_up())],
        );
        each_edit_moves(
            &(SessionId(1), 0.5),
            &[("session", |p| p.0 = SessionId(2)), ("score", |p| p.1 = p.1.next_up())],
        );
        let update = Update {
            actor: UserId(1),
            at: Timestamp(7),
            category: "check-in",
            text: "Ada checked into \"Streams\"".to_string(),
        };
        each_edit_moves(
            &update,
            &[
                ("actor", |u| u.actor = UserId(2)),
                ("at", |u| u.at = Timestamp(8)),
                ("category", |u| u.category = "discuss"),
                ("text", |u| last_char(&mut u.text)),
            ],
        );
        let feed = FeedDigest {
            updates: vec![update],
            counts: HashMap::from([("check-in", 1), ("discuss", 2)]),
        };
        each_edit_moves(
            &feed,
            &[
                ("update text", |f| f.updates.iter_mut().for_each(|u| last_char(&mut u.text))),
                ("update count", |f| f.updates.clear()),
                ("count", |f| {
                    f.counts.insert("discuss", 3);
                }),
                ("category", |f| {
                    f.counts.insert("browse", 1);
                }),
            ],
        );
        let history = HistoryHit {
            record: ActivityRecord {
                user: UserId(1),
                event: ActivityEvent::CheckIn(SessionId(2)),
                at: Timestamp(5),
            },
            relevance: 0.5,
            text: "checked into \"Streams\"".to_string(),
        };
        each_edit_moves(
            &history,
            &[
                ("record user", |h| h.record.user = UserId(2)),
                ("record event", |h| h.record.event = ActivityEvent::CheckIn(SessionId(3))),
                ("record time", |h| h.record.at = Timestamp(6)),
                ("relevance", |h| h.relevance = h.relevance.next_up()),
                ("text", |h| last_char(&mut h.text)),
            ],
        );
        each_edit_moves(&"title".to_string(), &[("last char", last_char)]);
        each_edit_moves(&0.5f64, &[("one ulp", |x| *x = x.next_up())]);
        each_edit_moves(&vec![1.0f64], &[("appended", |v| v.push(1.0))]);
        // Sequences digest apart however their elements split.
        assert_ne!(Digest::of(&["ab", "c"][..]), Digest::of(&["a", "bc"][..]));
        assert_ne!(Digest::of(&["ab", "c"][..]), Digest::of(&["abc"][..]));
        // Map digests do not depend on the map's iteration order.
        let mut reversed = HashMap::new();
        reversed.insert("discuss", 2);
        reversed.insert("check-in", 1);
        assert_eq!(Digest::of(&feed.counts), Digest::of(&reversed));
    }
}
