//! Centrality measures used to rank peers and resources.

use crate::graph::{Graph, NodeId};
use crate::shortest::dijkstra;
use hive_par::par_reduce;
use hive_rng::{Rng, SliceRandom};

/// Elementwise vector add, used to merge per-chunk score partials in
/// chunk order.
fn merge_scores(mut a: Vec<f64>, b: Vec<f64>) -> Vec<f64> {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

/// Weighted degree centrality (sum of out-edge weights) per node.
pub fn degree_centrality(g: &Graph) -> Vec<f64> {
    g.nodes().map(|u| g.out_weight(u)).collect()
}

/// Harmonic centrality per node: `sum over v != u of 1 / d(u, v)`.
///
/// Edge weights are treated as *costs*. Exact (all-sources) — prefer
/// [`harmonic_centrality_sampled`] on large graphs.
pub fn harmonic_centrality(g: &Graph) -> Vec<f64> {
    g.nodes()
        .map(|u| {
            let dm = dijkstra(g, u);
            g.nodes()
                .filter(|&v| v != u)
                .map(|v| {
                    let d = dm.distance(v);
                    if d.is_finite() && d > 0.0 {
                        1.0 / d
                    } else {
                        0.0
                    }
                })
                .sum()
        })
        .collect()
}

/// Sampled approximation of *inbound* harmonic centrality.
///
/// Runs Dijkstra from `samples` random pivot sources and accumulates
/// `1/d(pivot, v)` into each reachable `v`, scaled by `n/samples`.
pub fn harmonic_centrality_sampled(g: &Graph, samples: usize, seed: u64) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 || samples == 0 {
        return vec![0.0f64; n];
    }
    let mut pivots: Vec<NodeId> = g.nodes().collect();
    let mut rng = Rng::seed_from_u64(seed);
    pivots.shuffle(&mut rng);
    pivots.truncate(samples.min(n));
    let scale = n as f64 / pivots.len() as f64;
    let fold = |mut acc: Vec<f64>, &p: &NodeId| -> Vec<f64> {
        let dm = dijkstra(g, p);
        for v in g.nodes() {
            if v == p {
                continue;
            }
            let d = dm.distance(v);
            if d.is_finite() && d > 0.0 {
                acc[v.index()] += scale / d;
            }
        }
        acc
    };
    par_reduce(&pivots, || vec![0.0f64; n], fold, merge_scores)
}

/// Sampled betweenness centrality (Brandes' algorithm from `samples`
/// random pivot sources, unweighted BFS distances over out-edges),
/// scaled by `n / samples`.
///
/// Betweenness surfaces *brokers* — the researchers whose removal would
/// disconnect communities — which Hive's peer ranking uses as a
/// complementary signal to degree and harmonic centrality.
pub fn betweenness_sampled(g: &Graph, samples: usize, seed: u64) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 || samples == 0 {
        return vec![0.0f64; n];
    }
    let mut pivots: Vec<NodeId> = g.nodes().collect();
    let mut rng = Rng::seed_from_u64(seed);
    pivots.shuffle(&mut rng);
    pivots.truncate(samples.min(n));
    let scale = n as f64 / pivots.len() as f64;
    let fold = |mut acc: Vec<f64>, &s: &NodeId| -> Vec<f64> {
        // Brandes' single-source accumulation (unweighted).
        let mut stack: Vec<usize> = Vec::new();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut sigma = vec![0.0f64; n];
        let mut dist = vec![i64::MAX; n];
        sigma[s.index()] = 1.0;
        dist[s.index()] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(s.index());
        while let Some(v) = queue.pop_front() {
            stack.push(v);
            for e in g.out_edges(NodeId(v as u32)) {
                let w = e.neighbor.index();
                if dist[w] == i64::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
                if dist[w] == dist[v] + 1 {
                    sigma[w] += sigma[v];
                    preds[w].push(v);
                }
            }
        }
        let mut delta = vec![0.0f64; n];
        while let Some(w) = stack.pop() {
            for &v in &preds[w] {
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
            }
            if w != s.index() {
                acc[w] += delta[w] * scale;
            }
        }
        acc
    };
    par_reduce(&pivots, || vec![0.0f64; n], fold, merge_scores)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star() -> (Graph, NodeId, Vec<NodeId>) {
        let mut g = Graph::new();
        let hub = g.add_node("hub");
        let leaves: Vec<_> = (0..4).map(|i| g.add_node(format!("leaf{i}"))).collect();
        for &l in &leaves {
            g.add_undirected_edge(hub, l, 1.0);
        }
        (g, hub, leaves)
    }

    #[test]
    fn hub_has_max_degree() {
        let (g, hub, leaves) = star();
        let deg = degree_centrality(&g);
        for &l in &leaves {
            assert!(deg[hub.index()] > deg[l.index()]);
        }
    }

    #[test]
    fn hub_has_max_harmonic() {
        let (g, hub, leaves) = star();
        let h = harmonic_centrality(&g);
        // Hub: 4 neighbors at distance 1 = 4. Leaf: 1 + 3 * 1/2 = 2.5.
        assert!((h[hub.index()] - 4.0).abs() < 1e-9);
        for &l in &leaves {
            assert!((h[l.index()] - 2.5).abs() < 1e-9);
        }
    }

    #[test]
    fn sampled_matches_exact_with_all_pivots() {
        let (g, _, _) = star();
        let exact = harmonic_centrality(&g);
        let sampled = harmonic_centrality_sampled(&g, g.node_count(), 1);
        // The star is symmetric, so inbound == outbound harmonic here.
        for (a, b) in exact.iter().zip(&sampled) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn empty_and_zero_samples() {
        let g = Graph::new();
        assert!(harmonic_centrality_sampled(&g, 3, 0).is_empty());
        let (g, _, _) = star();
        assert_eq!(harmonic_centrality_sampled(&g, 0, 0), vec![0.0; 5]);
    }

    /// Two triangles joined through a single broker node.
    fn barbell() -> (Graph, NodeId) {
        let mut g = Graph::new();
        let ids: Vec<_> = (0..7).map(|i| g.add_node(format!("n{i}"))).collect();
        for &(a, b) in &[(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4)] {
            g.add_undirected_edge(ids[a], ids[b], 1.0);
        }
        // ids[3] bridges the two triangles.
        g.add_undirected_edge(ids[2], ids[3], 1.0);
        g.add_undirected_edge(ids[3], ids[4], 1.0);
        (g, ids[3])
    }

    #[test]
    fn broker_has_max_betweenness() {
        let (g, broker) = barbell();
        let bc = betweenness_sampled(&g, g.node_count(), 1);
        for n in g.nodes() {
            if n != broker {
                assert!(
                    bc[broker.index()] > bc[n.index()],
                    "broker {:.1} vs {:?} {:.1}",
                    bc[broker.index()],
                    n,
                    bc[n.index()]
                );
            }
        }
    }

    #[test]
    fn leaf_betweenness_is_zero_with_all_pivots() {
        let (g, _, leaves) = star();
        let bc = betweenness_sampled(&g, g.node_count(), 2);
        for &l in &leaves {
            assert!(bc[l.index()].abs() < 1e-9, "leaves broker nothing");
        }
    }

    #[test]
    fn betweenness_sampling_approximates_full() {
        let (g, broker) = barbell();
        let full = betweenness_sampled(&g, g.node_count(), 3);
        let sampled = betweenness_sampled(&g, 4, 3);
        // Under sampling the broker stays among the top brokers (the two
        // bridge-adjacent triangle nodes are legitimately close).
        let mut ranked: Vec<usize> = (0..sampled.len()).collect();
        ranked.sort_by(|&a, &b| sampled[b].partial_cmp(&sampled[a]).expect("finite"));
        assert!(
            ranked[..2].contains(&broker.index()),
            "broker should stay near the top: {sampled:?}"
        );
        // Exact (all-pivot) betweenness puts the broker strictly first.
        let max_full = full
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        assert_eq!(max_full, broker.index());
    }
}
