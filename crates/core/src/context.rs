//! The personal activity context (paper §2.1 and Figure 4).
//!
//! "The content of the currently active workpad defines the user's
//! activity context and all the searches and recommendations are
//! contextualized according to this active workpad." The context also
//! folds in the recent access history ("understanding the personal
//! activity context through access patterns").
//!
//! An [`ActivityContext`] carries three synchronized views of the same
//! context:
//!
//! * a TF-IDF **content vector** for similarity-based ranking,
//! * **graph seeds** (entity IRIs with restart mass) for PPR-style
//!   propagation over the unified knowledge network,
//! * the top context **terms** for snippet extraction and previews.

use crate::db::HiveDb;
use crate::discover::Resource;
use crate::ids::UserId;
use crate::knowledge::KnowledgeNetwork;
use crate::model::{ActivityEvent, QaTarget, WorkpadItem};
use hive_text::tfidf::SparseVector;
use std::collections::HashMap;

/// Context construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ContextConfig {
    /// Mass given to each workpad item.
    pub workpad_weight: f64,
    /// Mass given to each recent history record (before decay).
    pub history_weight: f64,
    /// How many trailing activity records to fold in.
    pub history_window: usize,
    /// Per-record geometric decay (most recent = 1, previous = decay, ...).
    pub history_decay: f64,
    /// Number of representative terms to expose.
    pub top_terms: usize,
}

impl Default for ContextConfig {
    fn default() -> Self {
        ContextConfig {
            workpad_weight: 1.0,
            history_weight: 0.3,
            history_window: 30,
            history_decay: 0.9,
            top_terms: 12,
        }
    }
}

/// A user's current activity context.
#[derive(Clone, Debug, Default)]
pub struct ActivityContext {
    /// Unit-length content vector over the corpus vocabulary.
    pub vector: SparseVector,
    /// Graph restart distribution: entity IRI -> mass.
    pub seeds: HashMap<String, f64>,
    /// Top context terms (display form), strongest first.
    pub terms: Vec<String>,
}

impl ActivityContext {
    /// True if the context carries no signal at all.
    pub fn is_empty(&self) -> bool {
        self.vector.is_empty() && self.seeds.is_empty()
    }

    /// Content similarity of a resource vector to this context.
    pub fn similarity(&self, v: &SparseVector) -> f64 {
        self.vector.cosine(v)
    }
}

/// Builds the activity context of `user` from their active workpad and
/// recent history.
///
/// The content vector is summed in a dense array over the vocabulary and
/// compacted in term order once: each term adds its contributions in the
/// order the records give them, as a sparse accumulation would, so the
/// bits are the same.
pub fn build_context(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    user: UserId,
    cfg: ContextConfig,
) -> ActivityContext {
    let mut sums = vec![0.0; kn.corpus.term_count()];
    let mut add = |v: &[(u32, f64)], w: f64| {
        for &(t, x) in v {
            if let Some(sum) = sums.get_mut(t as usize) {
                *sum += x * w;
            }
        }
    };
    let content = &kn.content;
    let mut seeds: HashMap<String, f64> = HashMap::new();
    let seed = |seeds: &mut HashMap<String, f64>, iri: String, mass: f64| {
        *seeds.entry(iri).or_insert(0.0) += mass;
    };
    // The user themself is always a (light) seed: recommendations start
    // from who you are even with an empty pad.
    seed(&mut seeds, user.iri(), 0.25 * cfg.workpad_weight);
    add(content.vector(Resource::User(user)), 0.25 * cfg.workpad_weight);
    // Active workpad items.
    if let Some(pad_id) = db.active_workpad_of(user) {
        if let Ok(pad) = db.get_workpad(pad_id) {
            let mut stack: Vec<(WorkpadItem, &crate::model::Workpad)> =
                pad.items.iter().map(|&i| (i, pad)).collect();
            while let Some((item, owner_pad)) = stack.pop() {
                let w = cfg.workpad_weight;
                match item {
                    WorkpadItem::UserAvatar(u) => {
                        seed(&mut seeds, u.iri(), w);
                        add(content.vector(Resource::User(u)), w);
                    }
                    WorkpadItem::Paper(p) => {
                        seed(&mut seeds, p.iri(), w);
                        add(content.vector(Resource::Paper(p)), w);
                    }
                    WorkpadItem::Presentation(p) => {
                        if let Ok(pres) = db.get_presentation(p) {
                            seed(&mut seeds, pres.paper.iri(), w);
                            seed(&mut seeds, pres.session.iri(), 0.5 * w);
                        }
                        add(content.vector(Resource::Presentation(p)), w);
                    }
                    WorkpadItem::Session(s) => {
                        seed(&mut seeds, s.iri(), w);
                        add(content.vector(Resource::Session(s)), w);
                    }
                    WorkpadItem::Question(q) => {
                        if let Ok(question) = db.get_question(q) {
                            add(kn.corpus.vectorize_known(&question.text).entries(), w);
                            let session = match question.target {
                                QaTarget::Presentation(p) => {
                                    db.get_presentation(p).map(|pr| pr.session).ok()
                                }
                                QaTarget::Session(s) => Some(s),
                            };
                            if let Some(s) = session {
                                seed(&mut seeds, s.iri(), 0.5 * w);
                            }
                        }
                    }
                    WorkpadItem::Collection(c) => {
                        // One level of collection expansion.
                        if let Ok(col) = db.get_collection(c) {
                            for &inner in &col.items {
                                if !matches!(inner, WorkpadItem::Collection(_)) {
                                    stack.push((inner, owner_pad));
                                }
                            }
                        }
                    }
                    WorkpadItem::Note(n) => {
                        if let Some(text) = owner_pad.notes.get(n as usize) {
                            add(kn.corpus.vectorize_known(text).entries(), w);
                        }
                    }
                }
            }
        }
    }
    // Recent history with geometric decay.
    let history = db.activities_of(user);
    let recent = history.iter().rev().take(cfg.history_window);
    let mut decay = 1.0;
    for rec in recent {
        let w = cfg.history_weight * decay;
        decay *= cfg.history_decay;
        match rec.event {
            ActivityEvent::CheckIn(s) => {
                seed(&mut seeds, s.iri(), w);
                add(content.vector(Resource::Session(s)), w);
            }
            ActivityEvent::ViewPaper(p) => {
                seed(&mut seeds, p.iri(), w);
                add(content.vector(Resource::Paper(p)), w);
            }
            ActivityEvent::ViewPresentation(p) => {
                add(content.vector(Resource::Presentation(p)), w);
            }
            ActivityEvent::Follow(u) => seed(&mut seeds, u.iri(), 0.5 * w),
            _ => {}
        }
    }
    let mut vector = SparseVector::from_dense(&sums);
    vector.normalize();
    let terms = vector
        .top_k(cfg.top_terms)
        .into_iter()
        .filter_map(|(id, _)| kn.corpus.term_name(id).map(str::to_string))
        .collect();
    ActivityContext { vector, seeds, terms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::KnowledgeNetwork;
    use crate::model::*;

    fn world() -> (HiveDb, Vec<UserId>, Vec<crate::ids::SessionId>, Vec<crate::ids::PaperId>) {
        let mut db = HiveDb::new();
        let users = vec![
            db.add_user(User::new("Zach", "ASU").with_interests(vec!["tensor streams".into()])),
            db.add_user(User::new("Ann", "UniTo").with_interests(vec!["graph communities".into()])),
        ];
        let conf = db.add_conference(Conference::new("EDBT", 2013, "Genoa"));
        let s0 = db
            .add_session(
                Session::new(conf, "Tensor Streams", "R1")
                    .with_topics(vec!["tensor stream monitoring".into()]),
            )
            .unwrap();
        let s1 = db
            .add_session(
                Session::new(conf, "Graph Processing", "R2")
                    .with_topics(vec!["large graph processing".into()]),
            )
            .unwrap();
        let p0 = db
            .add_paper(
                Paper::new("Tensor sketches", vec![users[0]])
                    .with_abstract("compressed sensing tensor streams"),
            )
            .unwrap();
        let p1 = db
            .add_paper(
                Paper::new("Graph communities", vec![users[1]])
                    .with_abstract("community detection graph processing"),
            )
            .unwrap();
        (db, users, vec![s0, s1], vec![p0, p1])
    }

    #[test]
    fn empty_user_gets_self_seed_only() {
        let (db, users, ..) = world();
        let kn = KnowledgeNetwork::build(&db);
        let ctx = build_context(&db, &kn, users[0], ContextConfig::default());
        assert!(ctx.seeds.contains_key(&users[0].iri()));
        // Interests still give a content vector.
        assert!(!ctx.vector.is_empty());
    }

    #[test]
    fn workpad_items_dominate_the_context() {
        let (mut db, users, sessions, papers) = world();
        let pad = db.create_workpad(users[0], "graphs").unwrap();
        db.workpad_add(users[0], pad, WorkpadItem::Paper(papers[1])).unwrap();
        db.workpad_add(users[0], pad, WorkpadItem::Session(sessions[1])).unwrap();
        let kn = KnowledgeNetwork::build(&db);
        let ctx = build_context(&db, &kn, users[0], ContextConfig::default());
        assert!(ctx.seeds.contains_key(&papers[1].iri()));
        assert!(ctx.seeds.contains_key(&sessions[1].iri()));
        // The graph-pad context is closer to the graph paper than the
        // tensor paper despite Zach's tensor interests.
        let paper = |p| SparseVector::from_entries(kn.content.vector(Resource::Paper(p)).to_vec());
        let sim_graph = ctx.similarity(&paper(papers[1]));
        let sim_tensor = ctx.similarity(&paper(papers[0]));
        assert!(sim_graph > sim_tensor, "{sim_graph} > {sim_tensor}");
    }

    #[test]
    fn switching_workpads_switches_context() {
        let (mut db, users, sessions, papers) = world();
        let pad_t = db.create_workpad(users[0], "tensors").unwrap();
        db.workpad_add(users[0], pad_t, WorkpadItem::Paper(papers[0])).unwrap();
        let pad_g = db.create_workpad(users[0], "graphs").unwrap();
        db.workpad_add(users[0], pad_g, WorkpadItem::Session(sessions[1])).unwrap();
        let kn = KnowledgeNetwork::build(&db);
        db.activate_workpad(users[0], pad_t).unwrap();
        let ctx_t = build_context(&db, &kn, users[0], ContextConfig::default());
        db.activate_workpad(users[0], pad_g).unwrap();
        let ctx_g = build_context(&db, &kn, users[0], ContextConfig::default());
        assert!(ctx_t.seeds.contains_key(&papers[0].iri()));
        assert!(!ctx_g.seeds.contains_key(&papers[0].iri()));
        assert!(ctx_g.seeds.contains_key(&sessions[1].iri()));
    }

    #[test]
    fn history_contributes_with_decay() {
        let (mut db, users, sessions, _) = world();
        db.check_in(users[0], sessions[1]).unwrap();
        let kn = KnowledgeNetwork::build(&db);
        let ctx = build_context(&db, &kn, users[0], ContextConfig::default());
        let m = ctx.seeds.get(&sessions[1].iri()).copied().unwrap_or(0.0);
        assert!(m > 0.0, "recent check-in should seed the context");
        // History weight < workpad weight by default.
        assert!(m <= ContextConfig::default().workpad_weight);
    }

    #[test]
    fn notes_and_collections_feed_the_vector() {
        let (mut db, users, _, papers) = world();
        // Ann exports a pad containing the tensor paper; Zach imports it.
        let ann_pad = db.create_workpad(users[1], "shared").unwrap();
        db.workpad_add(users[1], ann_pad, WorkpadItem::Paper(papers[0])).unwrap();
        let col = db.export_workpad(users[1], ann_pad).unwrap();
        let zach_pad = db.create_workpad(users[0], "mine").unwrap();
        db.workpad_add(users[0], zach_pad, WorkpadItem::Collection(col)).unwrap();
        db.workpad_note(users[0], zach_pad, "compressed sensing question").unwrap();
        let kn = KnowledgeNetwork::build(&db);
        let ctx = build_context(&db, &kn, users[0], ContextConfig::default());
        assert!(
            ctx.seeds.contains_key(&papers[0].iri()),
            "collection expansion should seed the inner paper"
        );
        assert!(!ctx.terms.is_empty());
    }

    #[test]
    fn terms_reflect_strongest_concepts() {
        let (mut db, users, _, papers) = world();
        let pad = db.create_workpad(users[0], "t").unwrap();
        db.workpad_add(users[0], pad, WorkpadItem::Paper(papers[0])).unwrap();
        let kn = KnowledgeNetwork::build(&db);
        let ctx = build_context(&db, &kn, users[0], ContextConfig::default());
        assert!(
            ctx.terms.iter().any(|t| t.starts_with("tensor")),
            "expected a tensor term in {:?}",
            ctx.terms
        );
    }
}
