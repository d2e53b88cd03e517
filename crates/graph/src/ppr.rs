//! PageRank and personalized PageRank (PPR).
//!
//! PPR is Hive's spreading-activation workhorse: the active workpad seeds
//! a restart distribution over knowledge-network nodes, and the stationary
//! distribution ranks every other node by contextual relevance (paper
//! §2.3 "Hive propagates the concepts within the relevant neighborhoods of
//! the knowledge network ... based on the current active context").

use crate::csr::CsrView;
use crate::graph::{Graph, NodeId};
use hive_par::chunk_len;
use std::collections::HashMap;

/// Parameters for (personalized) PageRank.
#[derive(Clone, Copy, Debug)]
pub struct PprConfig {
    /// Damping factor (probability of following an edge vs. restarting).
    pub damping: f64,
    /// Convergence threshold on the L1 change per iteration.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
}

impl Default for PprConfig {
    fn default() -> Self {
        PprConfig { damping: 0.85, tolerance: 1e-9, max_iters: 200 }
    }
}

/// Power-iteration PageRank with a restart distribution.
///
/// `seeds` maps seed nodes to restart mass; it is normalized internally.
/// Empty `seeds` means uniform restart (classic PageRank). Dangling mass
/// is redistributed to the restart vector, so the result always sums to 1.
pub fn personalized_pagerank(
    g: &Graph,
    seeds: &HashMap<NodeId, f64>,
    cfg: PprConfig,
) -> Vec<f64> {
    personalized_pagerank_csr(&CsrView::build(g), seeds, cfg)
}

/// Power-iteration PPR over a prebuilt [`CsrView`] snapshot.
///
/// One serial sweep loop over two plain rank buffers. The iteration is
/// *pull-based*: `next[v]` is one ordered sum over `v`'s incoming CSR
/// edges. The per-sweep L1 delta and the next sweep's dangling mass are
/// folded per [`chunk_len`] chunk and the chunk partials summed in chunk
/// order, so the output is a pure function of the graph, the seeds and
/// the config. Each solve adds its sweep count to `graph.ppr.sweeps`.
pub fn personalized_pagerank_csr(
    csr: &CsrView,
    seeds: &HashMap<NodeId, f64>,
    cfg: PprConfig,
) -> Vec<f64> {
    let n = csr.node_count();
    if n == 0 {
        return Vec::new();
    }
    // Restart vector. The seed map is materialized in node order
    // before any mass is summed: floating-point addition is
    // order-sensitive, and iterating the map directly would make the
    // normalizer (and through it every rank) drift by an ulp between
    // otherwise identical runs.
    let mut restart = vec![0.0f64; n];
    // lint:allow(determinism-taint) -- sorted into node order on the next line
    let mut seed_list: Vec<(NodeId, f64)> = seeds.iter().map(|(&k, &v)| (k, v)).collect();
    seed_list.sort_by_key(|&(node, _)| node.index());
    let seed_sum: f64 = seed_list.iter().map(|&(_, mass)| mass).sum();
    if seed_list.is_empty() || seed_sum <= 0.0 {
        for r in &mut restart {
            *r = 1.0 / n as f64;
        }
    } else {
        for &(node, mass) in &seed_list {
            restart[node.index()] += mass / seed_sum;
        }
    }
    let d = cfg.damping;
    let chunk = chunk_len(n);
    let mut cur = restart.clone();
    let mut next = vec![0.0f64; n];
    let mut dangling: f64 =
        (0..n).filter(|&i| csr.out_weight[i] == 0.0).map(|i| restart[i]).sum();
    let mut sweeps = 0u64;
    for _ in 0..cfg.max_iters {
        // Restart mass plus redistributed dangling mass.
        let base = 1.0 - d + d * dangling;
        // The L1 change and the next sweep's dangling mass, each summed
        // within a chunk, then over the chunks in order.
        let mut delta = 0.0;
        let mut next_dangling = 0.0;
        for start in (0..n).step_by(chunk) {
            let mut chunk_delta = 0.0;
            let mut chunk_dangling = 0.0;
            for i in start..(start + chunk).min(n) {
                let lo = csr.in_off[i] as usize;
                let hi = csr.in_off[i + 1] as usize;
                let mut pulled = 0.0;
                for (&u, &coef) in csr.in_src[lo..hi].iter().zip(&csr.in_coef[lo..hi]) {
                    pulled += cur[u as usize] * coef;
                }
                let v = base * restart[i] + d * pulled;
                next[i] = v;
                chunk_delta += (v - cur[i]).abs();
                if csr.out_weight[i] == 0.0 {
                    chunk_dangling += v;
                }
            }
            delta += chunk_delta;
            next_dangling += chunk_dangling;
        }
        std::mem::swap(&mut cur, &mut next);
        sweeps += 1;
        dangling = next_dangling;
        // Sweep on while the L1 change reaches the tolerance; a NaN
        // change does not, and stops the solve.
        let moving = delta >= cfg.tolerance;
        if !moving {
            break;
        }
    }
    hive_obs::count("graph.ppr.sweeps", sweeps);
    cur
}

/// Classic PageRank (uniform restart).
pub fn pagerank(g: &Graph, cfg: PprConfig) -> Vec<f64> {
    personalized_pagerank(g, &HashMap::new(), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_sum(v: &[f64]) -> f64 {
        v.iter().sum()
    }

    #[test]
    fn pagerank_sums_to_one() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 1.0);
        g.add_edge(b, c, 1.0);
        g.add_edge(c, a, 1.0);
        let pr = pagerank(&g, PprConfig::default());
        assert!((approx_sum(&pr) - 1.0).abs() < 1e-6);
        // Symmetric cycle: all equal.
        assert!((pr[0] - pr[1]).abs() < 1e-6);
        assert!((pr[1] - pr[2]).abs() < 1e-6);
    }

    #[test]
    fn dangling_mass_conserved() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b"); // dangling
        g.add_edge(a, b, 1.0);
        let pr = pagerank(&g, PprConfig::default());
        assert!((approx_sum(&pr) - 1.0).abs() < 1e-6);
        assert!(pr[b.index()] > pr[a.index()]);
    }

    #[test]
    fn personalization_biases_toward_seed_neighborhood() {
        // Two triangles joined by a weak bridge.
        let mut g = Graph::new();
        let ids: Vec<_> = (0..6).map(|i| g.add_node(format!("n{i}"))).collect();
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            g.add_undirected_edge(ids[u], ids[v], 1.0);
        }
        g.add_undirected_edge(ids[2], ids[3], 0.05);
        let mut seeds = HashMap::new();
        seeds.insert(ids[0], 1.0);
        let ppr = personalized_pagerank(&g, &seeds, PprConfig::default());
        // Every node in the seed triangle outranks every node across the bridge.
        for &near in &[0usize, 1, 2] {
            for &far in &[3usize, 4, 5] {
                assert!(
                    ppr[ids[near].index()] > ppr[ids[far].index()],
                    "n{near} should outrank n{far}"
                );
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert!(pagerank(&g, PprConfig::default()).is_empty());
    }

    #[test]
    fn weighted_edges_split_proportionally() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 3.0);
        g.add_edge(a, c, 1.0);
        // Make b and c non-dangling so the comparison is purely edge-driven.
        g.add_edge(b, a, 1.0);
        g.add_edge(c, a, 1.0);
        let pr = pagerank(&g, PprConfig::default());
        assert!(pr[b.index()] > pr[c.index()]);
    }

    #[test]
    fn each_solve_counts_its_sweeps() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_undirected_edge(a, b, 1.0);
        let csr = CsrView::build(&g);
        let uniform = HashMap::new();
        hive_obs::with_level(hive_obs::Level::Counts, || {
            hive_obs::reset();
            let every = PprConfig { tolerance: 0.0, max_iters: 3, ..PprConfig::default() };
            personalized_pagerank_csr(&csr, &uniform, every);
            personalized_pagerank_csr(&csr, &uniform, PprConfig { max_iters: 0, ..every });
            // Uniform ranks on a symmetric pair are already stationary:
            // the first sweep moves nothing and stops the solve.
            personalized_pagerank_csr(&csr, &uniform, PprConfig::default());
            // 3 sweeps, then none, then 1.
            assert_eq!(hive_obs::snapshot().counter("graph.ppr.sweeps"), 4);
            hive_obs::reset();
        });
    }

    /// `n` nodes; every `dangle_every`-th node (0 = none) has no
    /// out-edges, every other node `out_deg` random weighted ones.
    fn random_graph(n: usize, out_deg: usize, dangle_every: usize, seed: u64) -> Graph {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..n).map(|i| g.add_node(format!("n{i}"))).collect();
        let mut rng = hive_rng::Rng::seed_from_u64(seed);
        for i in 0..n {
            if dangle_every > 0 && i % dangle_every == 0 {
                continue;
            }
            for _ in 0..out_deg {
                let j = rng.gen_range(0..n);
                g.add_edge(ids[i], ids[j], rng.gen_range(0.1..1.0));
            }
        }
        g
    }

    /// FNV-1a over every rank's bit pattern: moves if any rank moves by
    /// an ulp.
    fn bits_hash(ranks: &[f64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for r in ranks {
            for byte in r.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The kernel's output bits, pinned: per graph, five configs, each
    /// with a seeded and a uniform restart. The graphs span 8, 28 and 5
    /// chunks of `hive_par::chunk_len`; the last two have dangling nodes
    /// (one in seven, seed 14 among them), so the chunk-ordered folds of
    /// the L1 delta and of the dangling mass both reach the output.
    /// `max_iters` 0 returns the restart vector, and tolerance 0 runs
    /// every sweep.
    #[test]
    fn ppr_output_bits_are_pinned() {
        // Row per graph; per config, the seeded hash then the uniform one.
        const GOLDEN: [[u64; 10]; 3] = [
            [
                0xe3f0_2c63_2806_6954, 0x8a87_e6f6_2b69_90dd,
                0x2134_66a4_b549_5f92, 0xe4d1_9da7_eaa4_1e36,
                0x1aa5_cd02_f8ab_8367, 0x8001_89d8_f5c0_9125,
                0xd751_9f5e_92d6_37a0, 0x2b98_46d9_acb4_67d6,
                0x759f_344e_5c27_2d78, 0x0d51_eb66_2c99_12be,
            ],
            [
                0xad02_f809_94ea_c8e2, 0xe17a_9f75_6c69_7642,
                0xc11e_7a5c_5533_f744, 0x4932_2f50_bbd8_2929,
                0x6069_0846_f4cf_3a67, 0x36e6_cd07_e969_7dc5,
                0x8e2d_d346_073d_45d9, 0xaa48_d322_46ed_5eed,
                0x78ef_d77d_1203_3dd3, 0xd932_b689_bd2d_9b59,
            ],
            [
                0x1a97_9737_289d_2b40, 0xbd46_7d76_3924_7653,
                0x4424_78e7_bff2_5acb, 0x1331_11a9_d5a1_f6eb,
                0xa280_67a7_d756_bfe7, 0x0120_1dd1_357e_1535,
                0x0f34_b356_a9f3_d4d8, 0x1037_d993_7dc3_e3d0,
                0xbeea_7b47_b2fc_0ce9, 0xfe2e_9257_95ce_a108,
            ],
        ];
        let graphs =
            [random_graph(2_000, 20, 0, 11), random_graph(7_000, 6, 7, 23), random_graph(1_100, 6, 7, 5)];
        let configs = [
            PprConfig::default(),
            PprConfig { damping: 0.6, ..PprConfig::default() },
            PprConfig { max_iters: 0, ..PprConfig::default() },
            PprConfig { max_iters: 3, ..PprConfig::default() },
            PprConfig { tolerance: 0.0, ..PprConfig::default() },
        ];
        let seeded: HashMap<NodeId, f64> =
            [(NodeId(5), 0.7), (NodeId(17), 0.3), (NodeId(14), 0.2)].into_iter().collect();
        let uniform = HashMap::new();
        let got: Vec<[u64; 10]> = graphs
            .iter()
            .map(|g| {
                let csr = CsrView::build(g);
                let mut row = [0u64; 10];
                for (i, cfg) in configs.iter().enumerate() {
                    row[2 * i] = bits_hash(&personalized_pagerank_csr(&csr, &seeded, *cfg));
                    row[2 * i + 1] = bits_hash(&personalized_pagerank_csr(&csr, &uniform, *cfg));
                }
                row
            })
            .collect();
        assert_eq!(got, GOLDEN, "PPR output bits moved");
    }
}
