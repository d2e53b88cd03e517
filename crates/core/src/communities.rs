//! Community discovery and tracking (Table 1: "Community discovery and
//! tracking"; §2.4's SCENT integration).
//!
//! Discovery runs modularity/label-propagation clustering over the merged
//! social + co-authorship user graph. Tracking observes a *sequence* of
//! interaction graphs (one per epoch), matches communities across epochs
//! by member overlap, and uses SCENT tensor-stream sketches to flag the
//! epochs where the underlying structure shifted.

use crate::db::HiveDb;
use crate::ids::UserId;
use crate::knowledge::{coauthor_graph, social_graph};
use hive_graph::{core_numbers, label_propagation, louvain, modularity, CommunityAssignment, Graph};
use hive_scent::{detect_changes, ChangeDetector, DetectorBackend, SparseTensor, TensorStream};
use std::collections::HashSet;

/// Clustering method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Greedy modularity (Louvain-style).
    Louvain,
    /// Weighted label propagation with a seed.
    LabelPropagation(u64),
}

/// A discovered community structure over users.
#[derive(Clone, Debug)]
pub struct Communities {
    /// Member lists, one per community (communities with >= 1 member).
    pub members: Vec<Vec<UserId>>,
    /// The raw node-level assignment (graph-node indexed).
    pub labels: CommunityAssignment,
    /// Modularity of the assignment on the source graph.
    pub modularity: f64,
}

impl Communities {
    /// Number of communities.
    pub fn count(&self) -> usize {
        self.members.len()
    }

    /// The community index containing `u`, if any.
    pub fn community_of(&self, u: UserId) -> Option<usize> {
        self.members.iter().position(|m| m.contains(&u))
    }

    /// The *active core* of each community: members whose k-core number
    /// within `g` reaches the community's own maximum — the researchers
    /// who keep the exchanges going, as opposed to peripheral attendees.
    pub fn active_cores(&self, g: &Graph) -> Vec<Vec<UserId>> {
        let core = core_numbers(g);
        self.members
            .iter()
            .map(|members| {
                let node_of = |u: &UserId| g.node(&u.iri());
                let max_core = members
                    .iter()
                    .filter_map(|u| node_of(u).map(|n| core[n.index()]))
                    .max()
                    .unwrap_or(0);
                members
                    .iter()
                    .copied()
                    .filter(|u| {
                        node_of(u)
                            .map(|n| core[n.index()] == max_core && max_core > 0)
                            .unwrap_or(false)
                    })
                    .collect()
            })
            .collect()
    }
}

fn parse_user(key: &str) -> Option<UserId> {
    key.strip_prefix("user:").and_then(|s| s.parse().ok().map(UserId))
}

/// The merged social + co-authorship user graph, built from `db`.
pub fn user_graph(db: &HiveDb) -> Graph {
    let mut g = Graph::new();
    for src in [social_graph(db), coauthor_graph(db)] {
        for n in src.nodes() {
            g.add_node(src.key(n).to_string());
        }
        for (u, v, w) in src.edges() {
            let (a, b) = (
                g.add_node(src.key(u).to_string()),
                g.add_node(src.key(v).to_string()),
            );
            g.add_edge(a, b, w);
        }
    }
    g
}

/// Clusters an arbitrary user graph (node keys must be `user:<id>` IRIs).
pub fn discover_from_graph(g: &Graph, method: Method) -> Communities {
    let labels = match method {
        Method::Louvain => louvain(g),
        Method::LabelPropagation(seed) => label_propagation(g, seed, 100),
    };
    let q = modularity(g, &labels);
    let mut members = vec![Vec::new(); labels.community_count()];
    for n in g.nodes() {
        if let Some(u) = parse_user(g.key(n)) {
            members[labels.label(n)].push(u);
        }
    }
    members.retain(|m| !m.is_empty());
    for m in &mut members {
        m.sort();
    }
    // Stable order: biggest first.
    members.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    Communities { members, labels, modularity: q }
}

/// One-shot discovery over the social and co-authorship layers of `db`.
pub fn discover(db: &HiveDb, method: Method) -> Communities {
    discover_from_graph(&user_graph(db), method)
}

/// Tracks community structure across epochs.
pub struct CommunityTracker {
    n_users: usize,
    method: Method,
    epochs: Vec<Communities>,
    stream: TensorStream,
    detector: ChangeDetector,
}

impl CommunityTracker {
    /// Creates a tracker for `n_users` users with a SCENT backend for the
    /// structural-change signal.
    pub fn new(n_users: usize, method: Method, backend: DetectorBackend) -> Self {
        assert!(n_users > 0);
        CommunityTracker {
            n_users,
            method,
            epochs: Vec::new(),
            stream: TensorStream::new(vec![n_users, n_users, 1]),
            detector: ChangeDetector::new(backend),
        }
    }

    /// Observes one epoch's interaction graph: clusters it and appends
    /// its adjacency tensor to the monitored stream.
    pub fn observe(&mut self, g: &Graph) -> &Communities {
        let mut t = SparseTensor::new(vec![self.n_users, self.n_users, 1]);
        for (u, v, w) in g.edges() {
            let (Some(a), Some(b)) = (parse_user(g.key(u)), parse_user(g.key(v))) else {
                continue;
            };
            if a.index() < self.n_users && b.index() < self.n_users {
                t.add(&[a.index(), b.index(), 0], w);
            }
        }
        self.stream.push(t);
        let epoch = discover_from_graph(g, self.method);
        self.epochs.push(epoch);
        // Hand back the epoch just stored (self.epochs is never empty
        // after the push above; fall back to index 0 to stay panic-free).
        let last = self.epochs.len().saturating_sub(1);
        &self.epochs[last]
    }

    /// Number of observed epochs.
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// The communities at epoch `e`.
    pub fn communities_at(&self, e: usize) -> &Communities {
        &self.epochs[e]
    }

    /// Epochs flagged by the SCENT change detector.
    pub fn change_epochs(&self, threshold: f64, warmup: usize) -> Vec<usize> {
        let scores = self.detector.score_stream(&self.stream);
        detect_changes(&scores, threshold, warmup)
    }

    /// Matches each community of epoch `e1` to its best-overlap community
    /// in epoch `e2`. Returns `(index_in_e1, Some(index_in_e2), jaccard)`
    /// or `None` when nothing overlaps (community died/was born).
    pub fn match_communities(&self, e1: usize, e2: usize) -> Vec<(usize, Option<usize>, f64)> {
        let a = &self.epochs[e1];
        let b = &self.epochs[e2];
        a.members
            .iter()
            .enumerate()
            .map(|(i, ma)| {
                let sa: HashSet<UserId> = ma.iter().copied().collect();
                let best = b
                    .members
                    .iter()
                    .enumerate()
                    .map(|(j, mb)| {
                        let sb: HashSet<UserId> = mb.iter().copied().collect();
                        let inter = sa.intersection(&sb).count();
                        let union = sa.union(&sb).count();
                        (j, if union == 0 { 0.0 } else { inter as f64 / union as f64 })
                    })
                    .max_by(|x, y| x.1.total_cmp(&y.1));
                match best {
                    Some((j, jac)) if jac > 0.0 => (i, Some(j), jac),
                    _ => (i, None, 0.0),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_scent::SketchConfig;

    /// Builds a user graph with two cliques; `bridge` adds a strong
    /// inter-clique coupling (the "merge" event).
    fn clique_graph(n_per: usize, bridge: bool) -> Graph {
        let mut g = Graph::new();
        let ids: Vec<_> = (0..2 * n_per)
            .map(|i| g.add_node(format!("user:{i}")))
            .collect();
        for group in [&ids[..n_per], &ids[n_per..]] {
            for i in 0..group.len() {
                for j in (i + 1)..group.len() {
                    g.add_undirected_edge(group[i], group[j], 1.0);
                }
            }
        }
        if bridge {
            for i in 0..n_per {
                g.add_undirected_edge(ids[i], ids[n_per + i], 2.0);
            }
        }
        g
    }

    #[test]
    fn discovery_finds_cliques() {
        let g = clique_graph(5, false);
        let c = discover_from_graph(&g, Method::Louvain);
        assert_eq!(c.count(), 2);
        assert_eq!(c.members[0].len(), 5);
        assert!(c.modularity > 0.3);
        assert_eq!(c.community_of(UserId(0)), c.community_of(UserId(1)));
        assert_ne!(c.community_of(UserId(0)), c.community_of(UserId(9)));
    }

    #[test]
    fn label_propagation_variant_works() {
        let g = clique_graph(5, false);
        let c = discover_from_graph(&g, Method::LabelPropagation(7));
        assert_eq!(c.count(), 2);
    }

    #[test]
    fn tracker_flags_structural_shift() {
        let mut tracker = CommunityTracker::new(
            10,
            Method::Louvain,
            DetectorBackend::Sketch(SketchConfig { measurements: 256, seed: 1 }),
        );
        // 8 quiet epochs, then the cliques merge.
        for _ in 0..8 {
            tracker.observe(&clique_graph(5, false));
        }
        tracker.observe(&clique_graph(5, true));
        tracker.observe(&clique_graph(5, true));
        assert_eq!(tracker.epoch_count(), 10);
        let changes = tracker.change_epochs(4.0, 4);
        assert!(changes.contains(&8), "merge epoch flagged, got {changes:?}");
    }

    #[test]
    fn active_cores_strip_the_periphery() {
        // A 4-clique with a peripheral member attached by two edges: the
        // peripheral user joins the community but not its active core.
        let mut g = Graph::new();
        let ids: Vec<_> = (0..5).map(|i| g.add_node(format!("user:{i}"))).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_undirected_edge(ids[i], ids[j], 1.0);
            }
        }
        g.add_undirected_edge(ids[2], ids[4], 1.0); // peripheral user:4
        g.add_undirected_edge(ids[3], ids[4], 1.0);
        let comms = discover_from_graph(&g, Method::Louvain);
        assert_eq!(comms.count(), 1, "{:?}", comms.members);
        assert_eq!(comms.members[0].len(), 5);
        let cores = comms.active_cores(&g);
        assert_eq!(cores.len(), 1);
        assert_eq!(cores[0].len(), 4, "pendant excluded: {cores:?}");
        assert!(!cores[0].contains(&UserId(4)));
    }

    #[test]
    fn community_matching_across_epochs() {
        let mut tracker = CommunityTracker::new(
            10,
            Method::Louvain,
            DetectorBackend::FullDiff,
        );
        tracker.observe(&clique_graph(5, false));
        tracker.observe(&clique_graph(5, false));
        let matches = tracker.match_communities(0, 1);
        assert_eq!(matches.len(), 2);
        for (_, target, jac) in matches {
            assert!(target.is_some());
            assert!((jac - 1.0).abs() < 1e-12, "identical epochs match perfectly");
        }
    }

    /// A single 10-clique: the fully merged community.
    fn merged_graph() -> Graph {
        let mut g = Graph::new();
        let ids: Vec<_> = (0..10).map(|i| g.add_node(format!("user:{i}"))).collect();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                g.add_undirected_edge(ids[i], ids[j], 1.0);
            }
        }
        g
    }

    #[test]
    fn merge_event_visible_in_matching() {
        let mut tracker = CommunityTracker::new(
            10,
            Method::Louvain,
            DetectorBackend::FullDiff,
        );
        tracker.observe(&clique_graph(5, false));
        tracker.observe(&merged_graph());
        let before = tracker.communities_at(0).count();
        let after = tracker.communities_at(1).count();
        assert!(after < before, "bridge should merge the communities");
        let matches = tracker.match_communities(0, 1);
        // Both old communities map into the one merged community.
        let targets: HashSet<usize> =
            matches.iter().filter_map(|(_, t, _)| *t).collect();
        assert_eq!(targets.len(), 1);
    }
}
