//! Parallel == serial, bit for bit: the hive-par chunked schedule must
//! not change any result, for any `HIVE_THREADS`. Each test runs the
//! same computation under `with_threads(1)` and `with_threads(4)` and
//! asserts exact equality (no tolerances).

use hive_core::peers::PeerRecConfig;
use hive_core::sim::{SimConfig, WorldBuilder};
use hive_core::Hive;
use hive_par::with_threads;
use hive_rng::Rng;
use hive_scent::{cp_als, SparseTensor};
use hive_text::tfidf::Corpus;

#[test]
fn peer_ranking_is_identical_across_thread_counts() {
    let world = WorldBuilder::new(SimConfig::small()).build();
    let hive = Hive::new(world.db);
    let zach = hive.db().user_ids()[0];
    let cfg = PeerRecConfig { candidate_pool: 20, ..Default::default() };
    let serial = with_threads(1, || hive.recommend_peers(zach, cfg));
    let par = with_threads(4, || hive.recommend_peers(zach, cfg));
    assert_eq!(serial.len(), par.len());
    for (s, p) in serial.iter().zip(&par) {
        assert_eq!(s.user, p.user, "ranking order must match");
        assert!(s.score.to_bits() == p.score.to_bits(), "{} != {}", s.score, p.score);
        assert_eq!(s.reasons, p.reasons);
        assert_eq!(s.likely_sessions.len(), p.likely_sessions.len());
        for ((ss, sv), (ps, pv)) in s.likely_sessions.iter().zip(&p.likely_sessions) {
            assert_eq!(ss, ps);
            assert!(sv.to_bits() == pv.to_bits());
        }
    }
}

#[test]
fn tfidf_batch_is_identical_across_thread_counts() {
    let mut corpus = Corpus::new();
    for i in 0..300 {
        corpus.index_document(&format!(
            "tensor stream monitoring social network community detection doc {i}"
        ));
    }
    let tfs: Vec<_> = (0..300)
        .map(|i| corpus.vectorize_known(&format!("tensor community doc {i}")))
        .collect();
    let serial = with_threads(1, || corpus.tfidf_batch(&tfs));
    let par = with_threads(4, || corpus.tfidf_batch(&tfs));
    assert_eq!(serial, par, "SparseVector scores must be exactly equal");
}

#[test]
fn cp_als_factors_are_bit_identical_across_thread_counts() {
    // 100x100x3 tensor with ~4000 entries, above the 2_048-entry gate.
    let mut t = SparseTensor::new(vec![100, 100, 3]);
    let mut rng = Rng::seed_from_u64(9);
    for _ in 0..4_000 {
        let idx = vec![rng.gen_range(0..100usize), rng.gen_range(0..100usize), rng.gen_range(0..3usize)];
        t.set(&idx, rng.gen_range(0.1..1.0));
    }
    let serial = with_threads(1, || cp_als(&t, 3, 5, 1));
    let par = with_threads(4, || cp_als(&t, 3, 5, 1));
    assert!(serial.residual.to_bits() == par.residual.to_bits());
    for (m, (fs, fp)) in serial.factors.iter().zip(&par.factors).enumerate() {
        assert_eq!(fs.len(), fp.len());
        for (r, (rs, rp)) in fs.iter().zip(fp).enumerate() {
            for (c, (a, b)) in rs.iter().zip(rp).enumerate() {
                assert!(a.to_bits() == b.to_bits(), "factor {m}[{r}][{c}]: {a} != {b}");
            }
        }
    }
}
