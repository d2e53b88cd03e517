//! Builds the multi-layer dynamic knowledge network (paper Figure 3)
//! from the platform database.
//!
//! "In its core, Hive leverages dynamically evolving knowledge
//! structures, including user connections, concept maps, co-authorship
//! networks, content from papers and presentations, and contextual
//! knowledge to create and to promote networks of peers."
//!
//! [`KnowledgeNetwork::build`] derives, from a [`HiveDb`]:
//!
//! * the **unified layer**: every graph layer (connections, follows,
//!   co-authorship, authorship, citations, presentations, session
//!   containment and user activity) fused into one undirected weighted
//!   graph for PPR-style propagation, held as an [`UndirectedCsr`];
//! * the **content layer** — a TF-IDF corpus over papers, presentations
//!   and sessions, and a [`ContentMatrix`] row per paper, presentation,
//!   session and user.
//!
//! The network is the serving knowledge tier, so it holds only what a
//! Table-1 read uses, and its graph keys no node by a string. Its nodes
//! are numbered by a [`NodeLayout`]: users, then sessions, papers and
//! conferences, each kind in id order, so a reader maps an entity to its
//! node by arithmetic. One mapping, `delta_edges`, gives the unified
//! edges of a patchable delta; a cold build adds the static edges and
//! then those of the replayed activity log, and a patch adds those of
//! its journal window to the CSR in place. The content layer changes
//! only under structural deltas, which rebuild the network, so it sits
//! behind `Arc`s that a patched copy shares: a copy of a network that a
//! published epoch still pins is the CSR's few flat arrays.
//!
//! The separate **social**, **co-authorship** and **citation** layers
//! ([`social_graph`], [`coauthor_graph`], [`citation_graph`]), the
//! **concept-map layers** (paper abstracts and session topics, aligned
//! and integrated via `hive-concept`, [`concept_layers`]) and the
//! weighted-RDF export ([`KnowledgeNetwork::to_store`]) are built on
//! demand for the few readers they have, and are not cached.
//!
//! The content layer also memoizes each resource's key concepts (its
//! full ranked TextRank phrase list), filled lazily by the searches that
//! return the resource, so a build pays nothing for it. Resource text
//! changes only through structural deltas, which rebuild the network and
//! start an empty memo; a patched copy shares its source's memo, so a
//! published epoch and the writer fill one memo between them. It holds
//! at most one entry per paper, presentation, session and user of the
//! database the network was built from.

use crate::db::{DbDelta, HiveDb};
use crate::discover::Resource;
use crate::ids::{ConferenceId, PaperId, PresentationId, SessionId, UserId};
use crate::tier::unpoison;
use hive_concept::{bootstrap_concept_map, AlignConfig, BootstrapConfig, ContextNetwork};
use hive_graph::{Graph, NodeId, UndirectedCsr};
use hive_store::{Term, TripleStore};
use hive_text::keyphrase::{extract_keyphrases, KeyphraseConfig};
use hive_text::tfidf::{cosine_of_dot, dot, norm, term_frequencies, Corpus};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Edge weights used when fusing layers into the unified graph. Exposed
/// so the ablation benches can sweep them.
#[derive(Clone, Copy, Debug)]
pub struct FusionWeights {
    /// Accepted connection (user-user).
    pub connection: f64,
    /// Follow (user-user, weaker than a mutual connection).
    pub follow: f64,
    /// Co-authorship per shared paper (user-user).
    pub coauthor: f64,
    /// Authorship (user-paper).
    pub authorship: f64,
    /// Citation (paper-paper).
    pub citation: f64,
    /// A presentation links its paper to its session.
    pub presentation: f64,
    /// Check-in (user-session).
    pub checkin: f64,
    /// Q/A/comment participation (user-session or user-presentation).
    pub discussion: f64,
    /// Paper/presentation view (user-paper).
    pub view: f64,
    /// Conference attendance (user-conference) and session containment.
    pub attendance: f64,
}

impl Default for FusionWeights {
    fn default() -> Self {
        FusionWeights {
            connection: 1.0,
            follow: 0.5,
            coauthor: 0.8,
            authorship: 1.0,
            citation: 0.7,
            presentation: 0.9,
            checkin: 0.9,
            discussion: 0.8,
            view: 0.3,
            attendance: 0.3,
        }
    }
}

/// Searchable resource kinds in content-matrix row order, which is also
/// the order search enumerates its candidates in.
const ROW_KINDS: usize = 4;
const PAPER_ROWS: usize = 0;
const PRESENTATION_ROWS: usize = 1;
const SESSION_ROWS: usize = 2;
const USER_ROWS: usize = 3;

/// The content layer as one flat matrix, a row per searchable resource:
/// papers, presentations, sessions, then users, each kind in id order,
/// so a row is its kind's offset plus the arena index (as a node is in
/// [`NodeLayout`]). A row holds
///
/// * the resource's TF-IDF entries in term order, with their norm summed
///   once at build time, and
/// * the term ids of the text its preview is cut from, with the token
///   count at each sentence end ([`hive_text::tokenize_sentences`]).
///
/// Both come from the one tokenization the build does. Scoring many rows
/// against one profile is a pass over contiguous entries
/// ([`hive_text::Gather`]); a preview scores its windows over the stored
/// ids instead of re-tokenizing the text. Rows change only when a
/// structural delta rebuilds the network, and patched copies share the
/// matrix through one `Arc`, so a comparison never re-sums a norm.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ContentMatrix {
    /// Rows of each kind, in row order.
    counts: [u32; ROW_KINDS],
    /// Row `r`'s entries are `entries[entry_start[r]..entry_start[r + 1]]`.
    entry_start: Vec<u32>,
    entries: Vec<(u32, f64)>,
    /// Each row's Euclidean [`norm`].
    norms: Vec<f64>,
    /// Row `r`'s tokens are `tokens[token_start[r]..token_start[r + 1]]`.
    token_start: Vec<u32>,
    tokens: Vec<u32>,
    /// Row `r`'s sentence ends, counted from its first token, are
    /// `ends[end_start[r]..end_start[r + 1]]`.
    end_start: Vec<u32>,
    ends: Vec<u32>,
}

impl ContentMatrix {
    fn new() -> Self {
        ContentMatrix {
            entry_start: vec![0],
            token_start: vec![0],
            end_start: vec![0],
            ..Default::default()
        }
    }

    /// Appends the next row's entries.
    fn push_entries(&mut self, entries: &[(u32, f64)]) {
        self.entries.extend_from_slice(entries);
        self.entry_start.push(self.entries.len() as u32);
    }

    /// Appends the next row's text as term ids ([`Corpus::intern_sentences`]
    /// with `seen`); returns them.
    fn push_text(
        &mut self,
        corpus: &mut Corpus,
        seen: &mut HashMap<String, Option<u32>>,
        text: &str,
    ) -> &[u32] {
        let (tokens, ends) = corpus.intern_sentences(text, seen);
        let first = self.tokens.len();
        self.tokens.extend(tokens);
        self.token_start.push(self.tokens.len() as u32);
        self.ends.extend(ends);
        self.end_start.push(self.ends.len() as u32);
        &self.tokens[first..]
    }

    /// Drops the spare capacity the appends left: a matrix lives as long
    /// as its network.
    fn shrink_to_fit(&mut self) {
        self.entry_start.shrink_to_fit();
        self.entries.shrink_to_fit();
        self.norms.shrink_to_fit();
        self.token_start.shrink_to_fit();
        self.tokens.shrink_to_fit();
        self.end_start.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.norms.len()
    }

    /// The rows of users, the last kind.
    pub(crate) fn user_rows(&self) -> std::ops::Range<usize> {
        let first: u32 = self.counts[..USER_ROWS].iter().sum();
        first as usize..self.rows()
    }

    /// The row of `r`, if the matrix has one.
    pub(crate) fn row(&self, r: Resource) -> Option<usize> {
        let (kind, index) = match r {
            Resource::Paper(p) => (PAPER_ROWS, p.0),
            Resource::Presentation(p) => (PRESENTATION_ROWS, p.0),
            Resource::Session(s) => (SESSION_ROWS, s.0),
            Resource::User(u) => (USER_ROWS, u.0),
        };
        let offset: u32 = self.counts[..kind].iter().sum();
        (index < self.counts[kind]).then_some((offset + index) as usize)
    }

    /// The resource of `row`.
    pub(crate) fn resource(&self, row: usize) -> Option<Resource> {
        let mut index = u32::try_from(row).ok()?;
        for (kind, &count) in self.counts.iter().enumerate() {
            if index < count {
                return Some(match kind {
                    PAPER_ROWS => Resource::Paper(PaperId(index)),
                    PRESENTATION_ROWS => Resource::Presentation(PresentationId(index)),
                    SESSION_ROWS => Resource::Session(SessionId(index)),
                    _ => Resource::User(UserId(index)),
                });
            }
            index -= count;
        }
        None
    }

    /// `row`'s TF-IDF entries in term order (empty out of range).
    pub(crate) fn entries(&self, row: usize) -> &[(u32, f64)] {
        span(&self.entry_start, row).and_then(|s| self.entries.get(s)).unwrap_or_default()
    }

    /// The TF-IDF entries of `r`, empty if it has no row.
    pub(crate) fn vector(&self, r: Resource) -> &[(u32, f64)] {
        self.row(r).map(|row| self.entries(row)).unwrap_or_default()
    }

    /// `row`'s norm (0 out of range).
    pub(crate) fn norm(&self, row: usize) -> f64 {
        self.norms.get(row).copied().unwrap_or(0.0)
    }

    /// `row`'s token ids and the token count at each of its sentence ends.
    pub(crate) fn text(&self, row: usize) -> (&[u32], &[u32]) {
        let tokens = span(&self.token_start, row).and_then(|s| self.tokens.get(s));
        let ends = span(&self.end_start, row).and_then(|s| self.ends.get(s));
        (tokens.unwrap_or_default(), ends.unwrap_or_default())
    }

    /// Content similarity of two resources in `[0, 1]`: the cosine of
    /// their rows by a merge join over both, 0 if either has no row.
    pub(crate) fn similarity(&self, a: Resource, b: Resource) -> f64 {
        match (self.row(a), self.row(b)) {
            (Some(a), Some(b)) => {
                cosine_of_dot(dot(self.entries(a), self.entries(b)), self.norm(a), self.norm(b))
            }
            _ => 0.0,
        }
    }
}

/// The range `start[row]..start[row + 1]`, if `row` is in range.
fn span(start: &[u32], row: usize) -> Option<std::ops::Range<usize>> {
    Some(*start.get(row)? as usize..*start.get(row + 1)? as usize)
}

/// The IRI prefix of each node kind, in node order.
const KINDS: [&str; 4] = [UserId::PREFIX, SessionId::PREFIX, PaperId::PREFIX, ConferenceId::PREFIX];
const USER: usize = 0;
const SESSION: usize = 1;
const PAPER: usize = 2;
const CONFERENCE: usize = 3;

/// The node numbering of the unified layer: users, then sessions,
/// papers and conferences, each kind in id order, so a node is its
/// kind's offset plus the entity's arena index. A presentation has no
/// node. The order matters beyond naming: PPR sums the dangling mass
/// and its stop test in node order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeLayout {
    /// Nodes of each kind, in [`KINDS`] order.
    counts: [u32; 4],
}

impl NodeLayout {
    /// The layout of `db`'s entities.
    pub fn of(db: &HiveDb) -> Self {
        let count = |n: usize| n as u32;
        NodeLayout {
            counts: [
                count(db.user_ids().len()),
                count(db.session_ids().len()),
                count(db.paper_ids().len()),
                count(db.conference_ids().len()),
            ],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.counts.iter().map(|&n| n as usize).sum()
    }

    /// Node `index` of `kind`, if in range.
    fn at(&self, kind: usize, index: u32) -> Option<NodeId> {
        let offset: u32 = self.counts[..kind].iter().sum();
        (index < self.counts[kind]).then_some(NodeId(offset + index))
    }

    /// The node of user `u`.
    pub fn user(&self, u: UserId) -> Option<NodeId> {
        self.at(USER, u.0)
    }

    /// The node of session `s`.
    pub(crate) fn session(&self, s: SessionId) -> Option<NodeId> {
        self.at(SESSION, s.0)
    }

    /// The node of paper `p`.
    pub(crate) fn paper(&self, p: PaperId) -> Option<NodeId> {
        self.at(PAPER, p.0)
    }

    /// The node of conference `c`.
    pub(crate) fn conference(&self, c: ConferenceId) -> Option<NodeId> {
        self.at(CONFERENCE, c.0)
    }

    /// The node of a searchable resource; a presentation has none.
    pub(crate) fn resource(&self, r: Resource) -> Option<NodeId> {
        match r {
            Resource::User(u) => self.user(u),
            Resource::Session(s) => self.session(s),
            Resource::Paper(p) => self.paper(p),
            Resource::Presentation(_) => None,
        }
    }

    /// Every user with its node, in id order: the first nodes.
    pub(crate) fn users(&self) -> impl Iterator<Item = (UserId, NodeId)> {
        (0..self.counts[USER]).map(|i| (UserId(i), NodeId(i)))
    }

    /// The node whose IRI is exactly `iri`: a kind's prefix, a colon and
    /// an in-range index in canonical decimal. So `user:01`, `user:+1`
    /// and `pres:3` name no node, as the string interner the unified
    /// layer once had found none for them.
    pub fn node(&self, iri: &str) -> Option<NodeId> {
        let (prefix, index) = iri.split_once(':')?;
        let kind = KINDS.iter().position(|&k| k == prefix)?;
        let canonical = index.bytes().all(|b| b.is_ascii_digit())
            && (index == "0" || !index.starts_with('0'));
        if !canonical {
            return None;
        }
        self.at(kind, index.parse().ok()?)
    }

    /// The IRI of node `n` (e.g. `session:3`), if in range: the
    /// entity's `iri()`.
    pub fn iri(&self, n: NodeId) -> Option<String> {
        let mut index = n.0;
        for (kind, &count) in self.counts.iter().enumerate() {
            if index < count {
                return Some(format!("{}:{index}", KINDS[kind]));
            }
            index -= count;
        }
        None
    }
}

/// One unified-layer edge `(a, b, weight)`, added as
/// [`Graph::add_undirected_edge`] adds it.
pub(crate) type Edge = (NodeId, NodeId, f64);

/// The derived knowledge network. Cloning it copies the unified layer's
/// flat arrays; the content layer is shared until a rebuild, and the
/// key-concept memo for good.
#[derive(Clone, Debug)]
pub struct KnowledgeNetwork {
    /// The node numbering of [`Self::csr`].
    pub layout: NodeLayout,
    /// The unified multi-layer graph (undirected) as the CSR every PPR
    /// run reads (peer recommendation, contextual search), patched in
    /// place by each journal window.
    pub csr: UndirectedCsr,
    /// Content corpus over papers, presentations, sessions, and profiles.
    pub corpus: Arc<Corpus>,
    /// A row per paper (title + abstract), presentation (slide text),
    /// session (title + topics) and user (profile text; its vector also
    /// sums the user's papers).
    pub content: Arc<ContentMatrix>,
    /// Each resource's ranked key phrases, filled on first use.
    key_concepts: Arc<Mutex<HashMap<Resource, Arc<[String]>>>>,
}

impl KnowledgeNetwork {
    /// Derives the full network from the database with default fusion
    /// weights.
    pub fn build(db: &HiveDb) -> Self {
        Self::build_with(db, FusionWeights::default())
    }

    /// Derives the network with explicit fusion weights.
    pub fn build_with(db: &HiveDb, w: FusionWeights) -> Self {
        let layout = NodeLayout::of(db);
        let csr = UndirectedCsr::build(layout.node_count(), unified_edges(db, &layout, &w));
        let (corpus, content) = build_content(db);
        KnowledgeNetwork {
            layout,
            csr,
            corpus: Arc::new(corpus),
            content: Arc::new(content),
            key_concepts: Arc::default(),
        }
    }

    /// The top `k` key concepts of `r`, whose text is `text`: the first
    /// `k` phrases of `extract_keyphrases(text)`, which ranks under a
    /// total order, so they equal a run with `top_k: k`. The full ranked
    /// list is extracted once per resource and memoized; `text` is read
    /// only on a miss.
    pub(crate) fn key_concepts(&self, r: Resource, text: &str, k: usize) -> Vec<String> {
        let memoized = unpoison(self.key_concepts.lock()).get(&r).cloned();
        let phrases = memoized.unwrap_or_else(|| {
            // Extract outside the lock; a racing request extracts the
            // same list, and the first insert wins.
            let cfg = KeyphraseConfig { top_k: usize::MAX, ..Default::default() };
            let ranked: Arc<[String]> =
                extract_keyphrases(text, cfg).into_iter().map(|kp| kp.phrase).collect();
            let mut memo = unpoison(self.key_concepts.lock());
            Arc::clone(memo.entry(r).or_insert(ranked))
        });
        phrases.iter().take(k).cloned().collect()
    }

    /// Number of resources whose key concepts are memoized: at most the
    /// papers, presentations, sessions and users of the database the
    /// network was built from.
    pub fn key_concept_entries(&self) -> usize {
        unpoison(self.key_concepts.lock()).len()
    }

    /// Content similarity between two users in `[0, 1]`.
    pub fn user_similarity(&self, a: UserId, b: UserId) -> f64 {
        self.content.similarity(Resource::User(a), Resource::User(b))
    }

    /// The `rel:*` triple export of `db` (`rel_export`: static entities,
    /// then a chronological replay of the activity log) as a weighted
    /// RDF store, for ranked path and BGP queries over it.
    // lint:mutator(TripleStore) -- the workspace's one sanctioned mutator
    // of the type, which hive-store's manifest declares protected (R9).
    pub fn to_store(&self, db: &HiveDb) -> TripleStore {
        let mut st = TripleStore::new();
        for (s, p, o, w) in rel_export(db) {
            // The weight is clamped into (0, 1] and both positions are
            // IRIs, so this cannot fail; ignore rather than panic.
            let _ = st.insert(s, p, o, w);
        }
        st
    }

    /// Moves the unified layer forward by a journal `window` of
    /// patchable deltas: their [`delta_edges`], added to the CSR in
    /// place, continue a cold build's edge list, so the result is
    /// bit-identical to [`KnowledgeNetwork::build_with`] over the
    /// database the window leads to. The caller rebuilds instead for a
    /// window with a [`DbDelta::Structural`], which adds no edge here.
    pub(crate) fn apply_window(&mut self, window: &[DbDelta], w: &FusionWeights) {
        let edges: Vec<Edge> =
            window.iter().flat_map(|d| delta_edges(&self.layout, w, d)).collect();
        self.csr.patch(&edges);
    }
}

/// One `rel:*` triple of the export: subject, predicate, object and a
/// weight clamped into `(0, 1]`.
pub(crate) type RelTriple = (Term, Term, Term, f64);

fn rel(s: String, p: &str, o: String, w: f64) -> RelTriple {
    (Term::iri(s), Term::iri(p), Term::iri(o), w.clamp(f64::MIN_POSITIVE, 1.0))
}

/// The relationship triples of `db`, in insertion order, for ranked
/// path queries (relationship explanation, Figure 2).
///
/// Predicates: `rel:connected`, `rel:follows`, `rel:coauthor`,
/// `rel:cites`, `rel:authored`, `rel:presented_in`, `rel:checked_in`,
/// `rel:discussed_in`, `rel:attended`, `rel:session_of`.
///
/// The export is **static entities first, then a chronological replay
/// of the activity log** ([`HiveDb::replay_deltas`]), each event's
/// triple being [`rel_triple`]'s; a triple listed twice keeps its last
/// weight. [`KnowledgeNetwork::to_store`] inserts the triples into a
/// store. The relationship tier interns them, and then each journal
/// window's triples, in the order [`TripleStore::insert`] does, so its
/// term ids, and the view they key, equal the store's.
pub(crate) fn rel_export(db: &HiveDb) -> impl Iterator<Item = RelTriple> + '_ {
    // Co-authorship with shared-paper counts.
    let mut coauth: HashMap<(UserId, UserId), f64> = HashMap::new();
    for p in db.paper_ids() {
        let Ok(paper) = db.get_paper(p) else { continue; };
        let authors = &paper.authors;
        for (i, &a) in authors.iter().enumerate() {
            for &b in &authors[i + 1..] {
                let key = if a < b { (a, b) } else { (b, a) };
                *coauth.entry(key).or_insert(0.0) += 1.0;
            }
        }
    }
    // Sort by author pair: HashMap iteration order varies between
    // instances, and insertion order fixes term-id assignment, which
    // downstream path ranking must not depend on. Keeping the export
    // order canonical makes two equal databases produce byte-identical
    // stores (the recovery-equivalence oracle relies on this).
    // lint:allow(determinism-taint) -- sorted by author pair on the next line
    let mut coauth: Vec<_> = coauth.into_iter().collect();
    coauth.sort_by_key(|&(pair, _)| pair);
    let coauthors = coauth
        .into_iter()
        .map(|((a, b), n)| rel(a.iri(), "rel:coauthor", b.iri(), (0.5 + 0.1 * n).min(1.0)));
    let papers = db.paper_ids().into_iter().filter_map(move |p| Some((p, db.get_paper(p).ok()?)));
    let papers = papers.flat_map(|(p, paper)| {
        let authored =
            paper.authors.iter().map(move |a| rel(a.iri(), "rel:authored", p.iri(), 1.0));
        let cites = paper.citations.iter().map(move |c| rel(p.iri(), "rel:cites", c.iri(), 0.7));
        authored.chain(cites)
    });
    let presentations = db.presentation_ids().into_iter().filter_map(move |id| {
        let pres = db.get_presentation(id).ok()?;
        Some(rel(pres.paper.iri(), "rel:presented_in", pres.session.iri(), 0.9))
    });
    let sessions = db.session_ids().into_iter().filter_map(move |s| {
        let sess = db.get_session(s).ok()?;
        Some(rel(s.iri(), "rel:session_of", sess.conference.iri(), 0.8))
    });
    let activity = db.replay_deltas().into_iter().filter_map(|d| rel_triple(&d));
    coauthors.chain(papers).chain(presentations).chain(sessions).chain(activity)
}

/// The `rel:*` triple a patchable delta writes, if any: the one mapping
/// both the cold export ([`rel_export`]) and the relationship tier's
/// patch read. Neutral, structural and paper-view deltas write
/// none.
pub(crate) fn rel_triple(d: &DbDelta) -> Option<RelTriple> {
    match *d {
        DbDelta::Connect { a, b } => Some(rel(a.iri(), "rel:connected", b.iri(), 1.0)),
        DbDelta::Follow { follower, followee } => {
            Some(rel(follower.iri(), "rel:follows", followee.iri(), 0.5))
        }
        DbDelta::CheckIn { user, session } => {
            Some(rel(user.iri(), "rel:checked_in", session.iri(), 0.9))
        }
        DbDelta::Discuss { author, session, .. } => {
            Some(rel(author.iri(), "rel:discussed_in", session.iri(), 0.8))
        }
        DbDelta::Attend { user, conf } => Some(rel(user.iri(), "rel:attended", conf.iri(), 0.6)),
        DbDelta::ViewPaper { .. } | DbDelta::Neutral | DbDelta::Structural => None,
    }
}

/// The unified layer's edges in the order a cold build adds them:
/// static edges (authorship and co-authorship per paper, citations,
/// presentations, session containment), then a chronological replay of
/// the activity log, each event's edges being [`delta_edges`]'. A patch
/// continues the same sequence with its window's events, so a patched
/// CSR and a cold one see the same rows in the same order with the same
/// float accumulation (the delta-vs-rebuild oracles rely on it). Every
/// entity an edge names is in the database, so every edge is kept.
fn unified_edges(db: &HiveDb, layout: &NodeLayout, w: &FusionWeights) -> Vec<Edge> {
    let mut edges = Vec::new();
    let mut und = |a: Option<NodeId>, b: Option<NodeId>, weight: f64| {
        if let (Some(a), Some(b)) = (a, b) {
            edges.push((a, b, weight));
        }
    };
    for p in db.paper_ids() {
        let Ok(paper) = db.get_paper(p) else { continue; };
        for (i, &a) in paper.authors.iter().enumerate() {
            und(layout.user(a), layout.paper(p), w.authorship);
            for &b in &paper.authors[i + 1..] {
                und(layout.user(a), layout.user(b), w.coauthor);
            }
        }
        for &c in &paper.citations {
            und(layout.paper(p), layout.paper(c), w.citation);
        }
    }
    for pres_id in db.presentation_ids() {
        let Ok(pres) = db.get_presentation(pres_id) else { continue; };
        und(layout.paper(pres.paper), layout.session(pres.session), w.presentation);
    }
    for s in db.session_ids() {
        let Ok(session) = db.get_session(s) else { continue; };
        und(layout.session(s), layout.conference(session.conference), w.attendance);
    }
    // Dynamic edges (connections, follows, check-ins, attendance,
    // discussions, browsing views) replay from the activity log.
    for d in db.replay_deltas() {
        edges.extend(delta_edges(layout, w, &d));
    }
    edges
}

/// The unified-layer edges a patchable delta adds: the one mapping both
/// the cold edge list ([`unified_edges`]) and the knowledge tier's patch
/// read, as [`rel_triple`] is for the relationship tier. Neutral and
/// structural deltas add none.
pub(crate) fn delta_edges(
    layout: &NodeLayout,
    w: &FusionWeights,
    d: &DbDelta,
) -> impl Iterator<Item = Edge> {
    let edge = |a: Option<NodeId>, b: Option<NodeId>, weight: f64| Some((a?, b?, weight));
    let edges = match *d {
        DbDelta::Connect { a, b } => [edge(layout.user(a), layout.user(b), w.connection), None],
        DbDelta::Follow { follower, followee } => {
            [edge(layout.user(follower), layout.user(followee), w.follow), None]
        }
        DbDelta::CheckIn { user, session } => {
            [edge(layout.user(user), layout.session(session), w.checkin), None]
        }
        DbDelta::Attend { user, conf } => {
            [edge(layout.user(user), layout.conference(conf), w.attendance), None]
        }
        DbDelta::Discuss { author, session, paper } => [
            edge(layout.user(author), layout.session(session), w.discussion),
            paper.and_then(|p| edge(layout.user(author), layout.paper(p), w.view)),
        ],
        DbDelta::ViewPaper { user, paper } => {
            [edge(layout.user(user), layout.paper(paper), w.view), None]
        }
        DbDelta::Neutral | DbDelta::Structural => [None, None],
    };
    edges.into_iter().flatten()
}

/// The social layer: accepted connections (undirected) and follows
/// (directed) between user IRIs, at the default fusion weights, in
/// activity-log order. Built on demand: community discovery and
/// Figure 3 are its only readers.
pub fn social_graph(db: &HiveDb) -> Graph {
    let w = FusionWeights::default();
    let mut g = Graph::new();
    for u in db.user_ids() {
        g.add_node(u.iri());
    }
    for d in db.replay_deltas() {
        match d {
            DbDelta::Connect { a, b } => {
                let (na, nb) = (g.add_node(a.iri()), g.add_node(b.iri()));
                g.add_undirected_edge(na, nb, w.connection);
            }
            DbDelta::Follow { follower, followee } => {
                let (na, nb) = (g.add_node(follower.iri()), g.add_node(followee.iri()));
                g.add_edge(na, nb, w.follow);
            }
            // The social layer carries explicit peer relations only.
            DbDelta::CheckIn { .. }
            | DbDelta::Attend { .. }
            | DbDelta::Discuss { .. }
            | DbDelta::ViewPaper { .. }
            | DbDelta::Neutral
            | DbDelta::Structural => {}
        }
    }
    g
}

/// The co-authorship layer: user IRIs, undirected, weighted by the
/// default co-authorship weight per shared paper. Built on demand, like
/// [`social_graph`].
pub fn coauthor_graph(db: &HiveDb) -> Graph {
    let w = FusionWeights::default();
    let mut g = Graph::new();
    for u in db.user_ids() {
        g.add_node(u.iri());
    }
    for p in db.paper_ids() {
        let Ok(paper) = db.get_paper(p) else { continue; };
        let authors = &paper.authors;
        for (i, &a) in authors.iter().enumerate() {
            for &b in &authors[i + 1..] {
                let (na, nb) = (g.add_node(a.iri()), g.add_node(b.iri()));
                g.add_undirected_edge(na, nb, w.coauthor);
            }
        }
    }
    g
}

/// The citation layer: paper IRIs, directed citing -> cited, weight 1.
/// Built on demand: Figure 3 is its only reader.
pub fn citation_graph(db: &HiveDb) -> Graph {
    let mut g = Graph::new();
    for p in db.paper_ids() {
        g.add_node(p.iri());
    }
    for p in db.paper_ids() {
        let Ok(paper) = db.get_paper(p) else { continue; };
        for &c in &paper.citations {
            let (np, nc) = (g.add_node(p.iri()), g.add_node(c.iri()));
            g.add_edge(np, nc, 1.0);
        }
    }
    g
}

/// The corpus and the content matrix of `db`. Papers, presentations and
/// sessions are indexed first, so IDF reflects the whole collection, and
/// then weighted against it; a user's row is its profile's vector plus
/// its papers' rows, renormalized. Term ids are interned in that order.
fn build_content(db: &HiveDb) -> (Corpus, ContentMatrix) {
    let mut corpus = Corpus::new();
    let mut m = ContentMatrix::new();
    let mut seen = HashMap::new();
    let (papers, presentations, sessions) =
        (db.paper_ids(), db.presentation_ids(), db.session_ids());
    m.counts = [papers.len(), presentations.len(), sessions.len(), 0].map(|n| n as u32);
    let slides = |p| db.get_presentation(p).map(|x| x.slides_text.clone());
    let texts = papers
        .into_iter()
        .map(|p| db.get_paper(p).map(|x| x.text()))
        .chain(presentations.into_iter().map(slides))
        .chain(sessions.into_iter().map(|s| db.get_session(s).map(|x| x.text())));
    // Index first so IDF reflects the whole collection, keeping each
    // document's raw counts in its row...
    for text in texts {
        let ids = m.push_text(&mut corpus, &mut seen, &text.unwrap_or_default());
        let tf = corpus.index_ids(ids);
        m.push_entries(tf.entries());
    }
    // ...then weight each document against it, in place.
    for bounds in m.entry_start.windows(2) {
        let entries = &mut m.entries[bounds[0] as usize..bounds[1] as usize];
        corpus.weigh(entries);
        m.norms.push(norm(entries));
    }
    // User rows: declared interests + authored papers, renormalized.
    let users = db.user_ids();
    m.counts[USER_ROWS] = users.len() as u32;
    for u in users {
        let profile = db.get_user(u).map(|x| x.profile_text()).unwrap_or_default();
        let ids = m.push_text(&mut corpus, &mut seen, &profile);
        let mut v = corpus.tfidf(&term_frequencies(ids));
        for &p in db.papers_of(u) {
            v.accumulate(m.vector(Resource::Paper(p)), 1.0);
        }
        v.normalize();
        m.push_entries(v.entries());
        m.norms.push(v.norm());
    }
    m.shrink_to_fit();
    (corpus, m)
}

/// The Figure-3 concept-map layers: a papers layer bootstrapped from
/// paper texts (weight 1.0) and a sessions layer from session texts
/// (weight 0.8), aligned. Built on demand: no served read uses them, so
/// the knowledge tier neither caches nor patches them.
pub fn concept_layers(db: &HiveDb) -> ContextNetwork {
    let paper_texts: Vec<String> = db
        .paper_ids()
        .iter()
        .filter_map(|&p| db.get_paper(p).ok().map(|paper| paper.text()))
        .collect();
    let paper_refs: Vec<&str> = paper_texts.iter().map(String::as_str).collect();
    let session_texts: Vec<String> = db
        .session_ids()
        .iter()
        .filter_map(|&s| db.get_session(s).ok().map(|session| session.text()))
        .collect();
    let session_refs: Vec<&str> = session_texts.iter().map(String::as_str).collect();
    let papers_map = bootstrap_concept_map("papers", &paper_refs, BootstrapConfig::default());
    let sessions_map =
        bootstrap_concept_map("sessions", &session_refs, BootstrapConfig::default());
    let mut net = ContextNetwork::new();
    net.add_layer(papers_map, 1.0);
    net.add_layer(sessions_map, 0.8);
    net.align_all(AlignConfig::default());
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::*;

    fn world() -> (HiveDb, Vec<UserId>, Vec<SessionId>, Vec<PaperId>) {
        let mut db = HiveDb::new();
        let users: Vec<UserId> = vec![
            db.add_user(User::new("Zach", "ASU").with_interests(vec!["tensor streams".into()])),
            db.add_user(User::new("Ann", "UniTo").with_interests(vec!["communities".into()])),
            db.add_user(User::new("Aaron", "NEC").with_interests(vec!["graphs".into()])),
        ];
        let conf = db.add_conference(Conference::new("EDBT", 2013, "Genoa"));
        let sessions = vec![
            db.add_session(
                Session::new(conf, "Tensor Streams", "R1")
                    .with_topics(vec!["tensor streams monitoring".into()]),
            )
            .unwrap(),
            db.add_session(
                Session::new(conf, "Graph Processing", "R2")
                    .with_topics(vec!["large scale graph processing".into()]),
            )
            .unwrap(),
        ];
        let p0 = db
            .add_paper(
                Paper::new("Tensor stream monitoring", vec![users[0], users[1]])
                    .with_abstract("compressed sensing of tensor streams in social networks")
                    .at_venue(conf),
            )
            .unwrap();
        let p1 = db
            .add_paper(
                Paper::new("Graph communities", vec![users[1], users[2]])
                    .with_abstract("community detection in large scale graphs")
                    .at_venue(conf)
                    .citing(vec![p0]),
            )
            .unwrap();
        db.add_presentation(Presentation::new(p0, users[0], sessions[0]).with_slides(
            "tensor streams compressed sensing sketch ensembles",
        ))
        .unwrap();
        for &u in &users {
            db.attend(u, conf).unwrap();
        }
        db.check_in(users[0], sessions[0]).unwrap();
        db.check_in(users[1], sessions[0]).unwrap();
        db.check_in(users[2], sessions[1]).unwrap();
        db.follow(users[0], users[1]).unwrap();
        db.request_connection(users[1], users[2]).unwrap();
        db.respond_connection(users[2], users[1], true).unwrap();
        (db, users, sessions, vec![p0, p1])
    }

    #[test]
    fn layers_have_expected_edges() {
        let (db, users, _, papers) = world();
        // Social: one connection (undirected = 2 directed) + one follow.
        assert_eq!(social_graph(&db).edge_count(), 3);
        // Coauthor: p0 links u0-u1; p1 links u1-u2.
        let coauthor = coauthor_graph(&db);
        let a = coauthor.node(&users[0].iri()).unwrap();
        let b = coauthor.node(&users[1].iri()).unwrap();
        assert!(coauthor.edge_weight(a, b).is_some());
        // Citation: p1 -> p0.
        let citation = citation_graph(&db);
        let c1 = citation.node(&papers[1].iri()).unwrap();
        let c0 = citation.node(&papers[0].iri()).unwrap();
        assert!(citation.edge_weight(c1, c0).is_some());
        assert!(citation.edge_weight(c0, c1).is_none(), "citations are directed");
    }

    /// The raw weight of the unified edge `a`-`b`, if present.
    fn unified_weight(kn: &KnowledgeNetwork, a: &str, b: &str) -> Option<f64> {
        let (a, b) = (kn.layout.node(a)?, kn.layout.node(b)?);
        kn.csr.in_edges(b).find(|e| e.neighbor == a).map(|e| e.weight)
    }

    #[test]
    fn unified_graph_spans_all_entity_kinds() {
        let (db, users, sessions, papers) = world();
        let kn = KnowledgeNetwork::build(&db);
        for key in [users[0].iri(), sessions[0].iri(), papers[0].iri()] {
            assert!(kn.layout.node(&key).is_some(), "missing {key}");
        }
        // Check-in edge present.
        assert!(unified_weight(&kn, &users[0].iri(), &sessions[0].iri()).is_some());
    }

    /// Every node's IRI maps back to it; a non-canonical, foreign or
    /// out-of-range key maps to no node, as the string interner found
    /// none for these either.
    #[test]
    fn node_iris_map_back_and_no_other_key_maps() {
        let db = crate::sim::WorldBuilder::new(crate::sim::SimConfig::small()).build().db;
        let layout = NodeLayout::of(&db);
        let users = db.user_ids().len();
        assert_eq!(
            layout.node_count(),
            users + db.session_ids().len() + db.paper_ids().len() + db.conference_ids().len()
        );
        for i in 0..layout.node_count() as u32 {
            let iri = layout.iri(NodeId(i)).expect("in range");
            assert_eq!(layout.node(&iri), Some(NodeId(i)), "{iri}");
        }
        let c = db.conference_ids()[0];
        assert_eq!(layout.conference(c).and_then(|n| layout.iri(n)), Some(c.iri()));
        assert_eq!(layout.iri(NodeId(layout.node_count() as u32)), None);
        let foreign = ["user:01", "user:+1", "user:", "pres:0", "user:-0", "user1", ""];
        for key in foreign.iter().map(|k| k.to_string()).chain([format!("user:{users}")]) {
            assert_eq!(layout.node(&key), None, "{key}");
        }
        assert_eq!(layout.resource(Resource::Presentation(PresentationId(0))), None);
    }

    #[test]
    fn content_vectors_capture_similarity() {
        let (db, users, ..) = world();
        let kn = KnowledgeNetwork::build(&db);
        // u0 and u1 share a tensor-stream paper; u2 does graphs.
        let sim_01 = kn.user_similarity(users[0], users[1]);
        let sim_02 = kn.user_similarity(users[0], users[2]);
        assert!(sim_01 > sim_02, "{sim_01} > {sim_02}");
    }

    /// Every row of the small and medium worlds stores its text's tokens,
    /// sentence by sentence, and a preview scored over them equals the
    /// string extraction field for field, under the contexts of several
    /// users with and without a query, a context of terms no document
    /// uses, and an empty one.
    #[test]
    fn previews_from_stored_ids_equal_the_string_extraction() {
        use hive_text::snippet::{extract_snippet, extract_snippet_ids};
        use hive_text::snippet::{SnippetConfig, SnippetContext};
        for cfg in [crate::sim::SimConfig::small(), crate::sim::SimConfig::medium()] {
            let db = crate::sim::WorldBuilder::new(cfg).build().db;
            let kn = KnowledgeNetwork::build(&db);
            let m = &kn.content;
            let mut rng = hive_rng::Rng::seed_from_u64(5);
            let mut contexts: Vec<Vec<String>> =
                vec![Vec::new(), vec!["zzyzx".into(), "qwertyuiop graphs".into()]];
            for (i, &u) in db.user_ids().iter().step_by(7).enumerate() {
                let terms = crate::context::build_context(&db, &kn, u, Default::default()).terms;
                let query = crate::sim::topic_phrase(i % crate::sim::topic_count(), &mut rng);
                contexts.push(terms.clone());
                contexts.push(query.split_whitespace().map(str::to_string).chain(terms).collect());
            }
            let contexts: Vec<SnippetContext> = contexts
                .iter()
                .map(|c| SnippetContext::new(c.iter().map(String::as_str)))
                .collect();
            let ids: Vec<_> = contexts.iter().map(|c| c.ids(|t| kn.corpus.lookup(t))).collect();
            assert_eq!(m.rows(), m.user_rows().end);
            for row in 0..m.rows() {
                let r = m.resource(row).expect("every row is a resource");
                assert_eq!(m.row(r), Some(row));
                let text = crate::discover::resource_text(&db, r);
                let (tokens, ends) = m.text(row);
                let expected: Vec<u32> = hive_text::tokenize_filtered(&text)
                    .iter()
                    .map(|t| kn.corpus.lookup(t).expect("every document token is interned"))
                    .collect();
                assert_eq!(tokens, expected, "{r:?}");
                assert_eq!(ends.len(), hive_text::tokenize::sentences(&text).len(), "{r:?}");
                for (context, ids) in contexts.iter().zip(&ids) {
                    let cfg = SnippetConfig::default();
                    assert_eq!(
                        extract_snippet_ids(&text, tokens, ends, ids, cfg),
                        extract_snippet(&text, context, cfg),
                        "{r:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn concept_layers_built_and_aligned() {
        let (db, ..) = world();
        let concepts = concept_layers(&db);
        assert_eq!(concepts.layer_count(), 2);
        let inv = concepts.inventory();
        assert!(inv[0].1 > 0, "paper concepts extracted");
        assert!(inv[1].1 > 0, "session concepts extracted");
    }

    #[test]
    fn store_export_supports_path_queries() {
        let (db, users, ..) = world();
        let kn = KnowledgeNetwork::build(&db);
        let st = kn.to_store(&db);
        assert!(st.len() > 10);
        // u0 -> u2 path exists (e.g. follow/coauthor via u1).
        let paths = hive_store::PathQuery::new(
            Term::iri(users[0].iri()),
            Term::iri(users[2].iri()),
        )
        .top_k(3)
        .run(&st)
        .unwrap();
        assert!(!paths.is_empty());
    }

    /// The memoized phrase list of `r`, if filled.
    fn memo_entry(kn: &KnowledgeNetwork, r: Resource) -> Option<Arc<[String]>> {
        unpoison(kn.key_concepts.lock()).get(&r).cloned()
    }

    #[test]
    fn memoized_key_concepts_equal_a_direct_extraction_for_every_k() {
        let (db, users, sessions, papers) = world();
        let kn = KnowledgeNetwork::build(&db);
        let pres = db.presentation_ids()[0];
        let resources = [
            Resource::Paper(papers[0]),
            Resource::Presentation(pres),
            Resource::Session(sessions[0]),
            Resource::User(users[1]),
        ];
        for r in resources {
            let text = crate::discover::resource_text(&db, r);
            for k in 0..=8 {
                let direct: Vec<String> =
                    extract_keyphrases(&text, KeyphraseConfig { top_k: k, ..Default::default() })
                        .into_iter()
                        .map(|kp| kp.phrase)
                        .collect();
                assert_eq!(kn.key_concepts(r, &text, k), direct, "{r:?} with k = {k}");
            }
        }
        assert_eq!(kn.key_concept_entries(), resources.len(), "one entry per resource");
    }

    #[test]
    fn a_patched_copy_of_a_pinned_network_shares_the_memo() {
        let (db, users, sessions, papers) = world();
        let mut server = crate::serve::HiveServer::new(db);
        let pinned = server.current();
        let kn0 = pinned.knowledge();
        let r = Resource::Paper(papers[0]);
        let text = crate::discover::resource_text(pinned.db(), r);
        let concepts = kn0.key_concepts(r, &text, 3);
        let filled = memo_entry(&kn0, r).expect("filled by the first request");
        server.writer().check_in(users[2], sessions[0]).unwrap();
        let next = server.publish();
        let kn1 = next.knowledge();
        assert!(!Arc::ptr_eq(&kn0, &kn1), "the pinned network was copied for the patch");
        let shared = memo_entry(&kn1, r).expect("the copy sees the entry");
        assert!(Arc::ptr_eq(&filled, &shared), "the same phrase list, not a re-extraction");
        assert_eq!(kn1.key_concepts(r, &text, 3), concepts);
    }

    #[test]
    fn revised_slides_get_the_revised_texts_concepts() {
        let (db, users, ..) = world();
        let pres = db.presentation_ids()[0];
        let mut hive = crate::api::Hive::new(db);
        let concepts = |hive: &crate::api::Hive| {
            let hits = hive.search(users[0], "privacy anonymization", Default::default());
            hits.into_iter()
                .find(|h| h.resource == Resource::Presentation(pres))
                .map(|h| h.key_concepts)
        };
        let before = concepts(&hive).expect("the slides match the context");
        let revised = "privacy anonymization differential disclosure perturbation utility";
        hive.revise_slides(users[0], pres, revised).unwrap();
        let after = concepts(&hive).expect("the revised slides match the query");
        let direct: Vec<String> =
            extract_keyphrases(revised, KeyphraseConfig { top_k: 3, ..Default::default() })
                .into_iter()
                .map(|kp| kp.phrase)
                .collect();
        assert_eq!(after, direct);
        assert_ne!(before, after);
    }

    #[test]
    fn fusion_weights_respected() {
        let (db, users, sessions, _) = world();
        let heavy = FusionWeights { checkin: 1.0, ..Default::default() };
        let light = FusionWeights { checkin: 0.1, ..Default::default() };
        let kh = KnowledgeNetwork::build_with(&db, heavy);
        let kl = KnowledgeNetwork::build_with(&db, light);
        let (u, s) = (users[0].iri(), sessions[0].iri());
        let wh = unified_weight(&kh, &u, &s).unwrap();
        let wl = unified_weight(&kl, &u, &s).unwrap();
        assert!(wh > wl);
    }
}
