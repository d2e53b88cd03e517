//! Relationship evidence: discovering and *explaining* why two
//! researchers are related (paper §2, Figure 2).
//!
//! "Hive uses the following evidences for discovering and explaining
//! relationships between individuals (peers) and for recommending new
//! peers or resources:
//!  profile and declared interest; current and past affiliation, group
//!  membership; co-authorship, direct citation, or indirect citation;
//!  online following; conference participation; session
//!  participation/check-in; reciprocal question, comment, and answer
//!  activities; user-provided content similarity; and activity
//!  similarity."
//!
//! Each evidence kind produces scored, human-readable [`EvidenceItem`]s;
//! [`explain_relationship`] additionally surfaces the strongest
//! knowledge-network paths between the two users (the right-hand column
//! of Figure 2).

use crate::db::HiveDb;
use crate::discover::Resource;
use crate::ids::{ConferenceId, PaperId, SessionId, UserId};
use crate::knowledge::KnowledgeNetwork;
use crate::model::{ActivityEvent, Paper, QaTarget, User};
use hive_store::{GraphView, PathQuery, Term, TermDict, TripleStore};
use hive_text::tokenize::tokenize_filtered;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// The evidence taxonomy of §2 (the paper's nine bullets, with the
/// citation bullet split into its three named sub-cases).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EvidenceKind {
    /// Overlapping declared interests (profile bullet).
    SharedInterests,
    /// Shared current/past affiliation.
    Affiliation,
    /// Shared group membership.
    GroupMembership,
    /// Co-authored papers.
    CoAuthorship,
    /// One's paper cites the other's.
    DirectCitation,
    /// Both cite the same paper.
    IndirectCitation,
    /// One follows the other online.
    Following,
    /// Attended the same conference edition / series.
    ConferenceCoParticipation,
    /// Checked into the same sessions.
    SessionCoParticipation,
    /// Reciprocal question/comment/answer activity.
    ReciprocalQa,
    /// User-provided content similarity.
    ContentSimilarity,
    /// Similar browsing/check-in behaviour.
    ActivitySimilarity,
}

impl EvidenceKind {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            EvidenceKind::SharedInterests => "shared interests",
            EvidenceKind::Affiliation => "affiliation",
            EvidenceKind::GroupMembership => "group membership",
            EvidenceKind::CoAuthorship => "co-authorship",
            EvidenceKind::DirectCitation => "direct citation",
            EvidenceKind::IndirectCitation => "indirect citation",
            EvidenceKind::Following => "following",
            EvidenceKind::ConferenceCoParticipation => "conference co-participation",
            EvidenceKind::SessionCoParticipation => "session co-participation",
            EvidenceKind::ReciprocalQa => "reciprocal Q&A",
            EvidenceKind::ContentSimilarity => "content similarity",
            EvidenceKind::ActivitySimilarity => "activity similarity",
        }
    }
}

/// One piece of scored, explained evidence.
#[derive(Clone, Debug, PartialEq)]
pub struct EvidenceItem {
    /// The evidence kind.
    pub kind: EvidenceKind,
    /// Strength in `(0, 1]`.
    pub score: f64,
    /// Human-readable explanation ("co-authored 2 papers: ...").
    pub explanation: String,
}

/// A full Figure 2-style relationship explanation.
#[derive(Clone, Debug)]
pub struct RelationshipExplanation {
    /// First user.
    pub a: UserId,
    /// Second user.
    pub b: UserId,
    /// Evidence items, strongest first.
    pub items: Vec<EvidenceItem>,
    /// Noisy-or combination of the item scores.
    pub combined: f64,
    /// Rendered strongest knowledge-network paths between the two.
    pub paths: Vec<String>,
}

fn push(items: &mut Vec<EvidenceItem>, kind: EvidenceKind, score: f64, explanation: String) {
    if score > 0.0 {
        items.push(EvidenceItem { kind, score: score.min(1.0), explanation });
    }
}

/// `|a ∩ b|` and `|a ∪ b|`.
fn overlap<T: Eq + Hash>(a: &HashSet<T>, b: &HashSet<T>) -> (usize, usize) {
    // lint:allow(determinism-taint) -- only counted
    let inter = a.intersection(b).count();
    (inter, a.len() + b.len() - inter)
}

fn interest_tokens(user: &User) -> HashSet<String> {
    user.interests.iter().flat_map(|s| tokenize_filtered(s)).collect()
}

/// Every citation `papers` make, one item per citation.
fn citations<'a>(
    db: &'a HiveDb,
    papers: impl Iterator<Item = &'a PaperId> + 'a,
) -> impl Iterator<Item = PaperId> + 'a {
    papers.flat_map(move |&p| db.get_paper(p).map_or(&[][..], |x| &x.citations).iter().copied())
}

/// Sessions, papers and presentations the user checked into or viewed.
fn touched(db: &HiveDb, u: UserId) -> HashSet<Resource> {
    db.activities_of(u)
        .iter()
        .filter_map(|r| match r.event {
            ActivityEvent::CheckIn(s) => Some(Resource::Session(s)),
            ActivityEvent::ViewPaper(p) => Some(Resource::Paper(p)),
            ActivityEvent::ViewPresentation(p) => Some(Resource::Presentation(p)),
            _ => None,
        })
        .collect()
}

/// What the evidence between user `a` and anyone needs from `a` alone,
/// derived once per request however many counterparts it is scored
/// against.
struct Side<'d> {
    id: UserId,
    user: &'d User,
    interests: HashSet<String>,
    groups: HashSet<&'d str>,
    papers: HashSet<PaperId>,
    /// Each (citing, cited) pair of `a`'s papers, in paper order.
    cites: Vec<(&'d Paper, &'d Paper)>,
    refs: HashSet<PaperId>,
    /// The papers `refs` cite, one entry per citation.
    ref_hops: Vec<PaperId>,
    confs: HashSet<ConferenceId>,
    series: HashSet<&'d str>,
    sessions: HashSet<SessionId>,
    touched: HashSet<Resource>,
    /// Reciprocal question/answer exchanges per counterpart.
    qa: HashMap<UserId, usize>,
}

impl<'d> Side<'d> {
    fn of(db: &'d HiveDb, a: UserId) -> Option<Self> {
        let user = db.get_user(a).ok()?;
        let papers = db.papers_of(a);
        let cites = papers
            .iter()
            .filter_map(|&p| db.get_paper(p).ok())
            .flat_map(|citing| {
                citing.citations.iter().filter_map(move |&c| Some((citing, db.get_paper(c).ok()?)))
            })
            .collect();
        let refs: HashSet<PaperId> = citations(db, papers.iter()).collect();
        // lint:allow(determinism-taint) -- only counted
        let ref_hops = citations(db, refs.iter()).collect();
        let confs: HashSet<ConferenceId> = db.conferences_of(a).into_iter().collect();
        let series = confs
            // lint:allow(determinism-taint) -- only the intersection count is used
            .iter()
            .filter_map(|&c| db.get_conference(c).ok().map(|x| x.series.as_str()))
            .collect();
        // One pass over the questions counts every counterpart's
        // exchanges: an answer to the other's question, or a question on
        // the other's presentation.
        let mut qa: HashMap<UserId, usize> = HashMap::new();
        for q in db.question_ids() {
            let Ok(question) = db.get_question(q) else { continue; };
            for &ans in db.answers_to(q) {
                let Ok(answer) = db.get_answer(ans) else { continue; };
                if question.author == a {
                    *qa.entry(answer.author).or_insert(0) += 1;
                } else if answer.author == a {
                    *qa.entry(question.author).or_insert(0) += 1;
                }
            }
            if let QaTarget::Presentation(p) = question.target {
                if let Ok(pres) = db.get_presentation(p) {
                    if question.author == a {
                        *qa.entry(pres.presenter).or_insert(0) += 1;
                    } else if pres.presenter == a {
                        *qa.entry(question.author).or_insert(0) += 1;
                    }
                }
            }
        }
        Some(Side {
            id: a,
            user,
            interests: interest_tokens(user),
            groups: user.groups.iter().map(String::as_str).collect(),
            papers: papers.iter().copied().collect(),
            cites,
            refs,
            ref_hops,
            confs,
            series,
            sessions: db.checkins_of(a).iter().map(|c| c.session).collect(),
            touched: touched(db, a),
            qa,
        })
    }
}

/// Computes every evidence item between `a` and `b`, strongest first.
pub fn relationship_evidence(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    a: UserId,
    b: UserId,
) -> Vec<EvidenceItem> {
    Side::of(db, a).map(|side| evidence_with(db, kn, &side, b)).unwrap_or_default()
}

/// Every evidence item between `side`'s user and `b`, strongest first.
fn evidence_with(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    side: &Side<'_>,
    b: UserId,
) -> Vec<EvidenceItem> {
    let mut items = Vec::new();
    let (a, ua) = (side.id, side.user);
    let Ok(ub) = db.get_user(b) else {
        return items;
    };
    // 1. Profile / declared interests.
    let interests_b = interest_tokens(ub);
    let interest_sim = if side.interests.is_empty() || interests_b.is_empty() {
        0.0
    } else {
        let (inter, union) = overlap(&side.interests, &interests_b);
        inter as f64 / union as f64
    };
    push(
        &mut items,
        EvidenceKind::SharedInterests,
        interest_sim,
        format!("declared interests overlap (jaccard {:.2})", interest_sim),
    );
    // 2a. Affiliation (current = strong, past = weaker). A shared past
    // affiliation is named as the first of `a`'s, current then past.
    if ua.affiliation == ub.affiliation {
        push(
            &mut items,
            EvidenceKind::Affiliation,
            0.8,
            format!("both currently at {}", ua.affiliation),
        );
    } else if let Some(shared) =
        ua.all_affiliations().find(|&x| ub.all_affiliations().any(|y| y == x))
    {
        push(
            &mut items,
            EvidenceKind::Affiliation,
            0.4,
            format!("shared (past) affiliation: {shared}"),
        );
    }
    // 2b. Group membership.
    let shared_groups: Vec<&str> = ub
        .groups
        .iter()
        .map(String::as_str)
        .filter(|g| side.groups.contains(g))
        .collect();
    if !shared_groups.is_empty() {
        push(
            &mut items,
            EvidenceKind::GroupMembership,
            (0.3 * shared_groups.len() as f64).min(1.0),
            format!(
                "shared groups: {}",
                shared_groups.join(", ")
            ),
        );
    }
    // 3. Co-authorship.
    let papers_b = db.papers_of(b);
    let shared_papers: Vec<PaperId> =
        papers_b.iter().copied().filter(|p| side.papers.contains(p)).collect();
    if !shared_papers.is_empty() {
        let titles: Vec<String> = shared_papers
            .iter()
            .filter_map(|&p| db.get_paper(p).ok().map(|x| format!("\"{}\"", x.title)))
            .collect();
        push(
            &mut items,
            EvidenceKind::CoAuthorship,
            (0.5 + 0.2 * shared_papers.len() as f64).min(1.0),
            format!("co-authored {} paper(s): {}", shared_papers.len(), titles.join(", ")),
        );
    }
    // 4. Direct citation (either direction).
    let mut direct = 0usize;
    let mut direct_example = String::new();
    for &(citing, cited) in &side.cites {
        if cited.has_author(b) {
            direct += 1;
            if direct_example.is_empty() {
                direct_example =
                    format!("\"{}\" cites {}'s \"{}\"", citing.title, ub.name, cited.title);
            }
        }
    }
    for &pb in papers_b {
        let Ok(paper_b) = db.get_paper(pb) else { continue; };
        for &cited in &paper_b.citations {
            if db.get_paper(cited).map(|p| p.has_author(a)).unwrap_or(false) {
                direct += 1;
                if direct_example.is_empty() {
                    direct_example = format!(
                        "\"{}\" cites {}'s \"{}\"",
                        paper_b.title,
                        ua.name,
                        db.get_paper(cited).map(|p| p.title.as_str()).unwrap_or("?")
                    );
                }
            }
        }
    }
    if direct > 0 {
        push(
            &mut items,
            EvidenceKind::DirectCitation,
            (0.4 + 0.15 * direct as f64).min(1.0),
            format!("{direct} direct citation(s); e.g. {direct_example}"),
        );
    }
    // 5. Indirect citation: "citing the same paper or transitive
    // citation". Shared references count fully; 2-hop transitive chains
    // (a's paper cites X, X cites b's paper, either direction) count at
    // half weight.
    let refs_b: HashSet<PaperId> = citations(db, papers_b.iter()).collect();
    // lint:allow(determinism-taint) -- only counted
    let shared_refs = side.refs.intersection(&refs_b).count();
    let papers_b_set: HashSet<PaperId> = papers_b.iter().copied().collect();
    let transitive = side.ref_hops.iter().filter(|hop| papers_b_set.contains(hop)).count()
        // lint:allow(determinism-taint) -- only counted
        + citations(db, refs_b.iter()).filter(|hop| side.papers.contains(hop)).count();
    if shared_refs > 0 || transitive > 0 {
        let score = (0.15 * shared_refs as f64 + 0.075 * transitive as f64).min(0.7);
        let mut text = String::new();
        if shared_refs > 0 {
            text.push_str(&format!("cite {shared_refs} common paper(s)"));
        }
        if transitive > 0 {
            if !text.is_empty() {
                text.push_str("; ");
            }
            text.push_str(&format!("{transitive} transitive citation chain(s)"));
        }
        push(&mut items, EvidenceKind::IndirectCitation, score, text);
    }
    // 6. Following.
    match (db.is_following(a, b), db.is_following(b, a)) {
        (true, true) => push(
            &mut items,
            EvidenceKind::Following,
            0.7,
            format!("{} and {} follow each other", ua.name, ub.name),
        ),
        (true, false) => push(
            &mut items,
            EvidenceKind::Following,
            0.4,
            format!("{} follows {}", ua.name, ub.name),
        ),
        (false, true) => push(
            &mut items,
            EvidenceKind::Following,
            0.4,
            format!("{} follows {}", ub.name, ua.name),
        ),
        (false, false) => {}
    }
    // 7. Conference co-participation: same edition, or same series across
    // years.
    let confs_b: HashSet<_> = db.conferences_of(b).into_iter().collect();
    // lint:allow(determinism-taint) -- only counted
    let same_edition = side.confs.intersection(&confs_b).count();
    if same_edition > 0 {
        push(
            &mut items,
            EvidenceKind::ConferenceCoParticipation,
            (0.1 * same_edition as f64).min(0.4),
            format!("attended {same_edition} conference edition(s) together"),
        );
    } else {
        let series_b: HashSet<&str> = confs_b
            // lint:allow(determinism-taint) -- only the intersection count is used
            .iter()
            .filter_map(|&c| db.get_conference(c).ok().map(|x| x.series.as_str()))
            .collect();
        // lint:allow(determinism-taint) -- only counted
        let shared_series = side.series.intersection(&series_b).count();
        if shared_series > 0 {
            push(
                &mut items,
                EvidenceKind::ConferenceCoParticipation,
                0.15,
                format!("attend the same series ({shared_series}) in different years"),
            );
        }
    }
    // 8. Session co-participation: "related sessions or same session/same
    // time". Same sessions count fully; distinct-but-topically-related
    // sessions (content cosine above 0.4) count at a quarter weight.
    let sess_a = &side.sessions;
    let sess_b: HashSet<_> = db.checkins_of(b).iter().map(|c| c.session).collect();
    // lint:allow(determinism-taint) -- only counted
    let shared_sessions = sess_a.intersection(&sess_b).count();
    let mut related_sessions = 0usize;
    // lint:allow(determinism-taint) -- pure counting, order-insensitive
    for &sa in sess_a {
        if sess_b.contains(&sa) {
            continue;
        }
        // lint:allow(determinism-taint) -- pure counting, order-insensitive
        for &sb in &sess_b {
            if sess_a.contains(&sb) {
                continue;
            }
            let sim = kn.content.similarity(Resource::Session(sa), Resource::Session(sb));
            if sim > 0.4 {
                related_sessions += 1;
            }
        }
    }
    if shared_sessions > 0 || related_sessions > 0 {
        let score = (0.2 * shared_sessions as f64 + 0.05 * related_sessions as f64).min(0.8);
        let mut text = String::new();
        if shared_sessions > 0 {
            text.push_str(&format!("checked into {shared_sessions} session(s) together"));
        }
        if related_sessions > 0 {
            if !text.is_empty() {
                text.push_str("; ");
            }
            text.push_str(&format!(
                "attended {related_sessions} topically related session pair(s)"
            ));
        }
        push(&mut items, EvidenceKind::SessionCoParticipation, score, text);
    }
    // 9. Reciprocal Q&A: one answered the other's question, or asked on
    // the other's presentation.
    let qa_hits = side.qa.get(&b).copied().unwrap_or(0);
    if qa_hits > 0 {
        push(
            &mut items,
            EvidenceKind::ReciprocalQa,
            (0.25 * qa_hits as f64).min(0.9),
            format!("{qa_hits} reciprocal question/answer exchange(s)"),
        );
    }
    // 10. Content similarity.
    let csim = kn.user_similarity(a, b);
    if csim > 0.05 {
        push(
            &mut items,
            EvidenceKind::ContentSimilarity,
            csim,
            format!("user-provided content similarity {:.2}", csim),
        );
    }
    // 11. Activity similarity: Jaccard over touched resources.
    let tb = touched(db, b);
    if !side.touched.is_empty() && !tb.is_empty() {
        let (inter, union) = overlap(&side.touched, &tb);
        let asim = inter as f64 / union as f64;
        if asim > 0.0 {
            push(
                &mut items,
                EvidenceKind::ActivitySimilarity,
                asim,
                format!("browsing/check-in overlap {:.2} ({inter} shared resources)", asim),
            );
        }
    }
    items.sort_by(|x, y| {
        y.score
            .total_cmp(&x.score)
            .then_with(|| x.kind.cmp(&y.kind))
    });
    items
}

impl RelationshipExplanation {
    /// Renders the explanation as the Figure 2 panel text: names,
    /// combined strength, the ranked evidence list, and the strongest
    /// connecting paths.
    pub fn render(&self, db: &HiveDb) -> String {
        let name = |u: UserId| {
            db.get_user(u)
                .map(|x| x.name.clone())
                .unwrap_or_else(|_| u.to_string())
        };
        let mut out = format!(
            "Relationships between \"{}\" and \"{}\" (strength {:.2})\n",
            name(self.a),
            name(self.b),
            self.combined
        );
        for item in &self.items {
            out.push_str(&format!(
                "  [{:.2}] {:<28} {}\n",
                item.score,
                item.kind.label(),
                item.explanation
            ));
        }
        if !self.paths.is_empty() {
            out.push_str("  connecting paths:\n");
            for p in &self.paths {
                out.push_str(&format!("    {p}\n"));
            }
        }
        out
    }
}

/// Noisy-or aggregation: `1 - prod(1 - s_i)`. Independent weak evidence
/// accumulates without any single item being required.
pub fn combined_score(items: &[EvidenceItem]) -> f64 {
    1.0 - items.iter().map(|i| 1.0 - i.score).product::<f64>()
}

/// [`relationship_evidence`] between `user` and every peer in `peers`,
/// in `peers` order. `user`'s side of the evidence is derived once for
/// the whole batch; a peer recommendation scores 25 candidates by
/// default.
pub fn batch_relationship_evidence(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    user: UserId,
    peers: &[UserId],
) -> Vec<Vec<EvidenceItem>> {
    match Side::of(db, user) {
        Some(side) => peers.iter().map(|&peer| evidence_with(db, kn, &side, peer)).collect(),
        None => vec![Vec::new(); peers.len()],
    }
}

/// Full Figure 2 output: evidence list + strongest knowledge-network
/// paths between the two users (rendered). Builds a throwaway
/// [`GraphView`] of `store`; callers holding a cached view should use
/// [`explain_relationship_with_view`].
pub fn explain_relationship(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    store: &TripleStore,
    a: UserId,
    b: UserId,
    top_paths: usize,
) -> RelationshipExplanation {
    let view = GraphView::build(store);
    explain_relationship_with_view(db, kn, store.dict(), &view, a, b, top_paths)
}

/// [`explain_relationship`] over a pre-built [`GraphView`] and the term
/// dictionary its ids come from — the cached fast path used by the
/// `Hive` facade, which keys the two by database generation.
pub fn explain_relationship_with_view(
    db: &HiveDb,
    kn: &KnowledgeNetwork,
    dict: &TermDict,
    view: &GraphView,
    a: UserId,
    b: UserId,
    top_paths: usize,
) -> RelationshipExplanation {
    let items = relationship_evidence(db, kn, a, b);
    let combined = combined_score(&items);
    let paths = PathQuery::new(Term::iri(a.iri()), Term::iri(b.iri()))
        .top_k(top_paths.max(1))
        .max_hops(4)
        .run_on(dict, view)
        .map(|ps| ps.iter().map(|p| p.explain(dict)).collect())
        .unwrap_or_default();
    RelationshipExplanation { a, b, items, combined, paths }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::*;

    fn rich_world() -> (HiveDb, Vec<UserId>) {
        let mut db = HiveDb::new();
        let users = vec![
            db.add_user(
                User::new("Zach", "ASU")
                    .with_interests(vec!["tensor streams".into(), "social networks".into()])
                    .with_groups(vec!["MiNC".into()]),
            ),
            db.add_user(
                User::new("Ann", "ASU")
                    .with_interests(vec!["tensor streams".into()])
                    .with_groups(vec!["MiNC".into()]),
            ),
            db.add_user(User::new("Dave", "MIT").with_interests(vec!["databases".into()])),
        ];
        let conf = db.add_conference(Conference::new("EDBT", 2013, "Genoa"));
        let s = db
            .add_session(Session::new(conf, "Tensors", "R1"))
            .unwrap();
        // Shared paper for Zach+Ann; Dave has an unrelated paper citing theirs.
        let shared = db
            .add_paper(
                Paper::new("Tensor monitoring", vec![users[0], users[1]])
                    .with_abstract("tensor streams compressed sensing")
                    .at_venue(conf),
            )
            .unwrap();
        db.add_paper(
            Paper::new("DB survey", vec![users[2]])
                .with_abstract("database systems survey")
                .citing(vec![shared]),
        )
        .unwrap();
        db.attend(users[0], conf).unwrap();
        db.attend(users[1], conf).unwrap();
        db.check_in(users[0], s).unwrap();
        db.check_in(users[1], s).unwrap();
        db.follow(users[0], users[1]).unwrap();
        (db, users)
    }

    #[test]
    fn strong_pair_has_many_evidence_kinds() {
        let (db, users) = rich_world();
        let kn = KnowledgeNetwork::build(&db);
        let items = relationship_evidence(&db, &kn, users[0], users[1]);
        let kinds: HashSet<EvidenceKind> = items.iter().map(|i| i.kind).collect();
        for expected in [
            EvidenceKind::SharedInterests,
            EvidenceKind::Affiliation,
            EvidenceKind::GroupMembership,
            EvidenceKind::CoAuthorship,
            EvidenceKind::Following,
            EvidenceKind::ConferenceCoParticipation,
            EvidenceKind::SessionCoParticipation,
            EvidenceKind::ContentSimilarity,
        ] {
            assert!(kinds.contains(&expected), "missing {expected:?} in {kinds:?}");
        }
        // Sorted descending.
        for w in items.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // Explanations are human-readable.
        let coauth = items
            .iter()
            .find(|i| i.kind == EvidenceKind::CoAuthorship)
            .unwrap();
        assert!(coauth.explanation.contains("Tensor monitoring"));
    }

    #[test]
    fn weak_pair_scores_lower() {
        let (db, users) = rich_world();
        let kn = KnowledgeNetwork::build(&db);
        let strong = combined_score(&relationship_evidence(&db, &kn, users[0], users[1]));
        let weak = combined_score(&relationship_evidence(&db, &kn, users[0], users[2]));
        assert!(strong > weak, "{strong} > {weak}");
    }

    #[test]
    fn direct_citation_detected_both_directions() {
        let (db, users) = rich_world();
        let kn = KnowledgeNetwork::build(&db);
        // Dave's paper cites Zach+Ann's.
        let items = relationship_evidence(&db, &kn, users[2], users[0]);
        assert!(
            items.iter().any(|i| i.kind == EvidenceKind::DirectCitation),
            "{items:?}"
        );
        let items_rev = relationship_evidence(&db, &kn, users[0], users[2]);
        assert!(items_rev.iter().any(|i| i.kind == EvidenceKind::DirectCitation));
    }

    #[test]
    fn symmetry_of_scores() {
        let (db, users) = rich_world();
        let kn = KnowledgeNetwork::build(&db);
        let ab = combined_score(&relationship_evidence(&db, &kn, users[0], users[1]));
        let ba = combined_score(&relationship_evidence(&db, &kn, users[1], users[0]));
        assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn noisy_or_properties() {
        let mk = |s: f64| EvidenceItem {
            kind: EvidenceKind::Following,
            score: s,
            explanation: String::new(),
        };
        assert_eq!(combined_score(&[]), 0.0);
        assert!((combined_score(&[mk(0.5)]) - 0.5).abs() < 1e-12);
        assert!((combined_score(&[mk(0.5), mk(0.5)]) - 0.75).abs() < 1e-12);
        assert!(combined_score(&[mk(1.0), mk(0.1)]) >= 1.0 - 1e-12);
    }

    #[test]
    fn explanation_includes_paths() {
        let (db, users) = rich_world();
        let kn = KnowledgeNetwork::build(&db);
        let store = kn.to_store(&db);
        let exp = explain_relationship(&db, &kn, &store, users[0], users[1], 3);
        assert!(exp.combined > 0.5);
        assert!(!exp.paths.is_empty(), "a path should exist between co-authors");
        assert!(exp.paths[0].contains(&users[0].iri()) || exp.paths[0].contains(&users[1].iri()));
    }

    #[test]
    fn transitive_citation_detected() {
        let mut db = HiveDb::new();
        let a = db.add_user(User::new("A", "X"));
        let mid_author = db.add_user(User::new("M", "Y"));
        let b = db.add_user(User::new("B", "Z"));
        // b's paper <- mid cites it <- a cites mid: transitive chain a->b.
        let b_paper = db
            .add_paper(Paper::new("Target", vec![b]).with_abstract("targets"))
            .unwrap();
        let mid = db
            .add_paper(
                Paper::new("Middle", vec![mid_author])
                    .with_abstract("middles")
                    .citing(vec![b_paper]),
            )
            .unwrap();
        db.add_paper(
            Paper::new("Source", vec![a])
                .with_abstract("sources")
                .citing(vec![mid]),
        )
        .unwrap();
        let kn = KnowledgeNetwork::build(&db);
        let items = relationship_evidence(&db, &kn, a, b);
        let indirect = items
            .iter()
            .find(|i| i.kind == EvidenceKind::IndirectCitation)
            .expect("transitive chain counts as indirect citation");
        assert!(indirect.explanation.contains("transitive"), "{indirect:?}");
        // No direct citation between a and b themselves.
        assert!(!items.iter().any(|i| i.kind == EvidenceKind::DirectCitation));
    }

    #[test]
    fn related_sessions_count_partially() {
        let mut db = HiveDb::new();
        let a = db.add_user(User::new("A", "X"));
        let b = db.add_user(User::new("B", "Y"));
        let conf = db.add_conference(Conference::new("EDBT", 2013, "Genoa"));
        // Two distinct but topically near-identical sessions.
        let s1 = db
            .add_session(
                Session::new(conf, "Tensor Streams I", "R1")
                    .with_topics(vec!["tensor stream monitoring sketches".into()]),
            )
            .unwrap();
        let s2 = db
            .add_session(
                Session::new(conf, "Tensor Streams II", "R2")
                    .with_topics(vec!["tensor stream monitoring ensembles".into()]),
            )
            .unwrap();
        db.check_in(a, s1).unwrap();
        db.check_in(b, s2).unwrap();
        let kn = KnowledgeNetwork::build(&db);
        let items = relationship_evidence(&db, &kn, a, b);
        let sess = items
            .iter()
            .find(|i| i.kind == EvidenceKind::SessionCoParticipation)
            .expect("related sessions count: {items:?}");
        assert!(sess.explanation.contains("related"), "{sess:?}");
        assert!(sess.score < 0.2, "weaker than a shared session");
    }

    #[test]
    fn rendered_explanation_reads_like_figure_2() {
        let (db, users) = rich_world();
        let kn = KnowledgeNetwork::build(&db);
        let store = kn.to_store(&db);
        let exp = explain_relationship(&db, &kn, &store, users[0], users[1], 2);
        let text = exp.render(&db);
        assert!(text.contains("Zach"));
        assert!(text.contains("Ann"));
        assert!(text.contains("co-authorship"));
        assert!(text.contains("connecting paths"));
    }

    #[test]
    fn shared_past_affiliation_is_named_in_the_first_users_order() {
        let mut db = HiveDb::new();
        let past = |names: [&str; 3]| names.iter().map(|s| s.to_string()).collect();
        let a = db.add_user(
            User::new("A", "NEC").with_past_affiliations(past(["ASU", "UniTo", "MIT"])),
        );
        let b = db.add_user(
            User::new("B", "IBM").with_past_affiliations(past(["MIT", "UniTo", "ASU"])),
        );
        let kn = KnowledgeNetwork::build(&db);
        for _ in 0..64 {
            let items = relationship_evidence(&db, &kn, a, b);
            let aff = items.iter().find(|i| i.kind == EvidenceKind::Affiliation);
            assert_eq!(
                aff.map(|i| i.explanation.as_str()),
                Some("shared (past) affiliation: ASU")
            );
        }
    }

    #[test]
    fn reciprocal_qa_evidence() {
        let (mut db, users) = rich_world();
        let s = db.session_ids()[0];
        let q = db
            .ask_question(users[2], QaTarget::Session(s), "what about scale?", false)
            .unwrap();
        db.answer_question(users[0], q, "it scales linearly").unwrap();
        let kn = KnowledgeNetwork::build(&db);
        let items = relationship_evidence(&db, &kn, users[0], users[2]);
        assert!(items.iter().any(|i| i.kind == EvidenceKind::ReciprocalQa), "{items:?}");
    }
}
